package relation

import (
	"iter"
	"reflect"
	"sync/atomic"
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
// the source and beside other lend calls on it.
type cow struct {
	shared []bool // nil (every page private) or one mark per page
	lent   atomic.Bool
}

// private reports whether every page may be written in place.
func (c *cow) private() bool { return c.shared == nil && !c.lent.Load() }

// settle applies a pending lent flag to a table of np pages: every one of
// them may by now be reachable from another table.
func (c *cow) settle(np int) {
	if !c.lent.Load() {
		return
	}
	c.shared = make([]bool, np)
	for i := range c.shared {
		c.shared[i] = true
	}
	c.lent.Store(false)
}

// claim makes page pi of a table of np pages private and reports whether
// it was shared, in which case the caller must copy the page before it
// writes it.
func (c *cow) claim(pi, np int) bool {
	c.settle(np)
	if c.shared == nil || !c.shared[pi] {
		return false
	}
	c.shared[pi] = false
	return true
}

// grow accounts for a fresh private page appended to a table of np pages.
func (c *cow) grow(np int) {
	c.settle(np)
	if c.shared != nil {
		c.shared = append(c.shared, false)
	}
}

// shrink accounts for a table of np pages cut to its first keep.
func (c *cow) shrink(np, keep int) {
	c.settle(np) // so that the marks can follow the pages
	if keep == 0 {
		c.shared = nil // nothing left that could be shared
	} else if c.shared != nil {
		c.shared = c.shared[:keep]
	}
}

// lend flags this table and to, a copy of it, as sharing every page.
func (c *cow) lend(to *cow) {
	c.lent.Store(true)
	to.lent.Store(true) // as good as lent: every page it holds is reachable from c
}

// paged is a growable array stored in fixed-size pages that a clone shares
// copy-on-write (cow). Until it first holds pageLen elements it is one
// ordinary slice grown by doubling (small); from then on element i is
// pages[i>>pageBits][i&pageMask], the last page partly filled. Either way
// page k covers elements [k·pageLen, (k+1)·pageLen), so two arrays of equal
// length split into pages identically — which is what lets scan loops walk
// rows and hashes page by page in lockstep.
//
// The zero value is an empty array. A paged must not be copied by value.
type paged[T any] struct {
	cow
	small []T           // the n elements, while len(pages) == 0
	pages []*[pageLen]T // the pages, once the array has filled one
	n     int
	fresh int // elements of pages copied on write or allocated by alloc
}

func (p *paged[T]) len() int { return p.n }

// at returns element i, which must be below len.
func (p *paged[T]) at(i int) T {
	if len(p.pages) == 0 {
		return p.small[i]
	}
	return p.pages[i>>pageBits][i&pageMask]
}

// numPages returns the number of pages holding elements.
func (p *paged[T]) numPages() int { return (p.n + pageMask) >> pageBits }

// page returns page pi for reading; its element k is element
// pi<<pageBits + k of the array.
func (p *paged[T]) page(pi int) []T {
	if len(p.pages) == 0 {
		return p.small
	}
	return p.pages[pi][:min(pageLen, p.n-pi<<pageBits)]
}

// eachPage iterates over the pages in order, each with the position of its
// first element: tight loops take one call per page, not per element.
func (p *paged[T]) eachPage() iter.Seq2[int, []T] {
	return func(yield func(int, []T) bool) {
		for pi := range p.numPages() {
			if !yield(pi<<pageBits, p.page(pi)) {
				return
			}
		}
	}
}

// own makes page pi writable, copying it if it is shared.
func (p *paged[T]) own(pi int) {
	if !p.claim(pi, p.numPages()) {
		return
	}
	if len(p.pages) == 0 {
		p.small = append([]T(nil), p.small...)
		p.fresh += p.n
		return
	}
	pg := *p.pages[pi]
	p.pages[pi] = &pg
	p.fresh += pageLen
}

// set stores v at position i, first copying the page if it is shared.
func (p *paged[T]) set(i int, v T) {
	if !p.private() {
		p.own(i >> pageBits)
	}
	if len(p.pages) == 0 {
		p.small[i] = v
	} else {
		p.pages[i>>pageBits][i&pageMask] = v
	}
}

// append adds v at the end.
func (p *paged[T]) append(v T) {
	if p.private() {
		if k := p.n & pageMask; k != 0 && len(p.pages) > 0 {
			p.pages[p.n>>pageBits][k] = v // room on the last page
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
			p.pages, p.small = append(p.pages, (*[pageLen]T)(p.small)), nil
		}
		return
	}
	pi := p.n >> pageBits
	if pi < len(p.pages) {
		p.own(pi)
	} else {
		p.grow(len(p.pages))
		p.pages = append(p.pages, new([pageLen]T))
	}
	p.pages[pi][p.n&pageMask] = v
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
		p.pages = make([]*[pageLen]T, 0, n>>pageBits)
	}
}

// alloc replaces the contents with n zero elements on private pages.
func (p *paged[T]) alloc(n int) {
	p.small, p.pages = nil, nil
	if n < pageLen {
		p.small = make([]T, n)
	} else {
		p.pages = make([]*[pageLen]T, (n+pageMask)>>pageBits)
		for i := range p.pages {
			p.pages[i] = new([pageLen]T)
		}
	}
	p.n, p.shared = n, nil
	p.lent.Store(false)
	p.fresh += n
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
	c.pages = append([]*[pageLen]T(nil), p.pages...)
	c.n = p.n
}

// freshBytes returns the bytes of page storage this array has copied on
// write or allocated afresh (alloc) since it was created or shared into;
// none for a nil array.
func (p *paged[T]) freshBytes() int64 {
	if p == nil {
		return 0
	}
	return int64(p.fresh) * int64(reflect.TypeFor[T]().Size())
}
