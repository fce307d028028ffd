package relation

import (
	"sync/atomic"
	"unsafe"
)

// pageLen is the number of elements a storage page holds. Every array a
// relation or an index keeps per row or per slot is a paged[T], and the
// rows themselves are pages of pageLen rows (page.go); a write to a page
// shared with a clone copies that page first, so the cost of mutating a
// clone is set by pageLen (bytes copied per touched page) and the cost of
// Clone by rows/pageLen (page-table entries copied). DESIGN §13 "Storage:
// shared pages" records the measurements behind the value.
const (
	pageBits = 10
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1
)

// cow holds the ownership marks of a page table. A page is private to one
// table or shared: lend hands the table's pages to a copy and flags both
// as lent; the next write to either (which, like every mutation in this
// package, requires exclusive access) turns the flag into shared marks on
// all its pages. A write to a shared page copies it and keeps the private
// copy; nothing ever writes a page that another table can reach. lend
// itself writes only the atomic flags, so it may run beside readers of
// the source and beside other lend calls on it. The marks are a bit per
// page, held in the table itself up to 128 pages. A table once marked is
// not private again, though every mark is clear, until it is emptied: a
// page it copied may still share the leaves below it (leafPage).
type cow struct {
	few    [2]uint64 // the marks of a table of up to 128 pages
	many   *[]uint64 // the marks of a larger one, or nil
	marked bool      // the marks are kept
	lent   atomic.Bool
}

// private reports whether every page may be written in place.
func (c *cow) private() bool { return !c.marked && !c.lent.Load() }

// word returns the word that holds page pi's mark, nil for a page past the
// marks kept.
func (c *cow) word(pi int) *uint64 {
	switch {
	case c.many != nil && pi>>6 < len(*c.many):
		return &(*c.many)[pi>>6]
	case c.many == nil && pi < 64*len(c.few):
		return &c.few[pi>>6]
	}
	return nil
}

// shared reports whether page pi may be reachable from another table.
func (c *cow) shared(pi int) bool {
	w := c.word(pi)
	return c.marked && w != nil && *w&(1<<(pi&63)) != 0
}

// settle applies a pending lent flag to a table of np pages: every one of
// them may by now be reachable from another table.
func (c *cow) settle(np int) {
	if !c.lent.Load() {
		return
	}
	c.few, c.many, c.marked = [2]uint64{}, nil, true
	if np > 64*len(c.few) {
		m := make([]uint64, (np+63)>>6)
		c.many = &m
	}
	for pi := 0; pi < np; pi += 64 {
		*c.word(pi) = ^uint64(0) >> (64 - min(64, np-pi))
	}
	c.lent.Store(false)
}

// claim makes page pi of a table of np pages private and reports whether
// it was shared, in which case the caller must copy the page before it
// writes it.
func (c *cow) claim(pi, np int) bool {
	c.settle(np)
	if !c.shared(pi) {
		return false
	}
	*c.word(pi) &^= 1 << (pi & 63)
	return true
}

// grow accounts for a fresh private page appended to a table of np pages.
func (c *cow) grow(np int) {
	c.settle(np)
	if !c.marked || c.word(np) != nil {
		return // the new page's mark, if it has one, is clear
	}
	if c.many == nil {
		c.many, c.few = &[]uint64{c.few[0], c.few[1]}, [2]uint64{}
	}
	for len(*c.many) <= np>>6 {
		*c.many = append(*c.many, 0)
	}
}

// shrink accounts for a table of np pages cut to its first keep.
func (c *cow) shrink(np, keep int) {
	c.settle(np) // so that the marks can follow the pages
	if keep == 0 {
		c.few, c.many, c.marked = [2]uint64{}, nil, false // nothing left that could be shared
		return
	}
	for pi := keep; pi < np; pi++ { // a page appended later is private
		if c.shared(pi) {
			*c.word(pi) &^= 1 << (pi & 63)
		}
	}
}

// lend flags this table and to, a copy of it, as sharing every page.
func (c *cow) lend(to *cow) {
	c.lent.Store(true)
	to.lent.Store(true) // as good as lent: every page it holds is reachable from c
}

// Leaves: a page of a paged array is not one block but leafPages leaves
// of leafLen elements, each copied on its own. The arrays of a hash table
// are written at random positions, a few per insert or delete, and a write
// to a shared page then copies one leaf and the page's leaf table, not
// pageLen elements. Rows stay in pages of pageLen (page.go): they are
// written at the end and where a delete moves the last row.
const (
	leafBits  = 7
	leafLen   = 1 << leafBits
	leafMask  = leafLen - 1
	leafPages = pageLen / leafLen
)

// leafPage is one page of a paged array: its leaves, and which of them it
// may share with a page of another array — the page itself, once copied,
// is its array's alone.
type leafPage[T any] struct {
	leaf   [leafPages]*[leafLen]T
	shared uint8 // bit j: leaf[j] may be reachable from another page
}

// newLeafPage returns a page of zero elements, its leaves allocated in
// one block. The leaf table is an allocation of its own: in the block, it
// would push a block of 4 or 8 KB into a size class 15 % larger.
func newLeafPage[T any]() *leafPage[T] {
	pg, block := new(leafPage[T]), new([leafPages][leafLen]T)
	for j := range block {
		pg.leaf[j] = &block[j]
	}
	return pg
}

// paged is a growable array stored in fixed-size pages that a clone shares
// copy-on-write (cow), each page in leaves that are copied one at a time.
// Until it first holds pageLen elements it is one ordinary slice grown by
// doubling (small); from then on element i is on page i>>pageBits, the
// last page partly filled.
//
// The zero value is an empty array. A paged must not be copied by value.
type paged[T any] struct {
	cow
	small []T            // the n elements, while len(pages) == 0
	pages []*leafPage[T] // the pages, once the array has filled one
	n     int
	fresh int64 // bytes of leaves and pages copied on write or allocated by alloc
}

func (p *paged[T]) len() int { return p.n }

// at returns element i, which must be below len.
func (p *paged[T]) at(i int) T {
	if len(p.pages) == 0 {
		return p.small[i]
	}
	return p.pages[i>>pageBits].leaf[i>>leafBits&(leafPages-1)][i&leafMask]
}

// numPages returns the number of pages holding elements.
func (p *paged[T]) numPages() int { return (p.n + pageMask) >> pageBits }

// own makes the leaf holding element i writable, copying the page's leaf
// table if the page is shared and the leaf if it is.
func (p *paged[T]) own(i int) {
	pi, j := i>>pageBits, i>>leafBits&(leafPages-1)
	if p.claim(pi, p.numPages()) {
		if len(p.pages) == 0 {
			p.small = append([]T(nil), p.small...)
			p.fresh += int64(p.n) * sizeOf[T]()
			return
		}
		// Not in one block with a leaf: a leaf outlives the page that copied
		// it, and would keep that page's leaf table, and the leaves it
		// points to, from the collector.
		pg := *p.pages[pi]
		pg.shared = 1<<leafPages - 1
		p.pages[pi] = &pg
		p.fresh += int64(unsafe.Sizeof(pg))
	}
	if len(p.pages) == 0 {
		return
	}
	if pg := p.pages[pi]; pg.shared&(1<<j) != 0 {
		lf := *pg.leaf[j]
		pg.leaf[j], pg.shared = &lf, pg.shared&^(1<<j)
		p.fresh += leafLen * sizeOf[T]()
	}
}

// sizeOf is the size of one element.
func sizeOf[T any]() int64 {
	var v T
	return int64(unsafe.Sizeof(v))
}

// set stores v at position i, first copying its leaf if it is shared.
func (p *paged[T]) set(i int, v T) {
	if !p.private() {
		p.own(i)
	}
	if len(p.pages) == 0 {
		p.small[i] = v
	} else {
		p.pages[i>>pageBits].leaf[i>>leafBits&(leafPages-1)][i&leafMask] = v
	}
}

// append adds v at the end.
func (p *paged[T]) append(v T) {
	if p.private() {
		if k := p.n & pageMask; k != 0 && len(p.pages) > 0 {
			p.pages[p.n>>pageBits].leaf[k>>leafBits][k&leafMask] = v // room on the last page
			p.n++
			return
		}
		if n := p.n; n+1 < cap(p.small) {
			p.small = p.small[:n+1] // room in a slice that stays below one page
			p.small[n] = v
			p.n = n + 1
			return
		}
	}
	p.appendSlow(v)
}

func (p *paged[T]) appendSlow(v T) {
	if len(p.pages) == 0 {
		if p.n > 0 {
			p.own(0)
		}
		if p.n == cap(p.small) && 2*p.n >= pageLen { // append's next doubling could pass one page
			p.small = append(make([]T, 0, pageLen), p.small...)
		}
		p.small = append(p.small, v)
		p.small = p.small[:len(p.small):min(cap(p.small), pageLen)]
		if p.n++; p.n == pageLen {
			pg := new(leafPage[T])
			for j := range pg.leaf {
				pg.leaf[j] = (*[leafLen]T)(p.small[j*leafLen:])
			}
			p.pages, p.small = append(p.pages, pg), nil
		}
		return
	}
	pi := p.n >> pageBits
	if pi < len(p.pages) {
		p.own(p.n)
	} else {
		p.grow(len(p.pages))
		p.pages = append(p.pages, newLeafPage[T]())
	}
	k := p.n & pageMask
	p.pages[pi].leaf[k>>leafBits][k&leafMask] = v
	p.n++
}

// truncate shortens the array to its first n elements.
func (p *paged[T]) truncate(n int) {
	np := (n + pageMask) >> pageBits
	p.shrink(p.numPages(), np)
	p.n = n
	if len(p.pages) == 0 {
		p.small = p.small[:n]
	} else {
		clear(p.pages[np:]) // release the dropped pages
		p.pages = p.pages[:np]
	}
	if np == 0 {
		p.small = nil
	}
}

// reserve prepares an empty array for n appends.
func (p *paged[T]) reserve(n int) {
	p.small = make([]T, 0, min(n, pageLen))
	if n >= pageLen {
		p.pages = make([]*leafPage[T], 0, n>>pageBits)
	}
}

// alloc replaces the contents with n zero elements on private pages.
func (p *paged[T]) alloc(n int) {
	p.small, p.pages = nil, nil
	if n < pageLen {
		p.small = make([]T, n)
	} else {
		p.pages = make([]*leafPage[T], (n+pageMask)>>pageBits)
		for i := range p.pages {
			p.pages[i] = newLeafPage[T]()
		}
	}
	p.n, p.few, p.many, p.marked = n, [2]uint64{}, nil, false
	p.lent.Store(false)
	p.fresh += int64(n) * sizeOf[T]()
}

// shareTo makes c, which must be empty, a copy of p that shares all of
// p's pages: O(pages), not O(elements). Safe beside readers of p and
// beside concurrent shareTo calls on p.
func (p *paged[T]) shareTo(c *paged[T]) {
	if p.n == 0 {
		return
	}
	p.lend(&c.cow)
	c.small = p.small
	c.pages = append([]*leafPage[T](nil), p.pages...)
	c.n = p.n
}

// freshBytes returns the bytes of storage this array has copied on write
// or allocated afresh (alloc) since it was created or shared into; none
// for a nil array.
func (p *paged[T]) freshBytes() int64 {
	if p == nil {
		return 0
	}
	return p.fresh
}
