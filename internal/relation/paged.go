package relation

import (
	"iter"
	"reflect"
	"sync/atomic"
)

// pageLen is the number of elements a storage page holds. Every array a
// relation or an index keeps per row or per slot is a paged[T]; a write to
// a page shared with a clone copies that page first, so the cost of
// mutating a clone is set by pageLen (bytes copied per touched page) and
// the cost of Clone by rows/pageLen (page-table entries copied). DESIGN
// §13 "Storage: shared pages" records the measurements behind the value.
const (
	pageBits = 10
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1
)

// paged is a growable array stored in fixed-size pages that a clone shares
// copy-on-write. Until it first holds pageLen elements it is one ordinary
// slice grown by doubling (small); from then on element i is
// pages[i>>pageBits][i&pageMask], the last page partly filled. Either way
// page k covers elements [k·pageLen, (k+1)·pageLen), so two arrays of equal
// length split into pages identically — which is what lets scan loops walk
// rows and hashes page by page in lockstep.
//
// Ownership: a page is private to one array or shared. shareTo hands every
// page of the source to the copy as shared and flags the source as lent;
// the source's next write (which, like every mutation in this package,
// requires exclusive access) turns the flag into shared marks on all its
// pages. A write copies a shared page and keeps the private copy; nothing
// ever writes a page that another array can reach. shareTo itself writes
// only the atomic flag, so it may run beside readers of the source and
// beside other shareTo calls on it.
//
// The zero value is an empty array. A paged must not be copied by value.
type paged[T any] struct {
	small  []T           // the n elements, while len(pages) == 0
	pages  []*[pageLen]T // the pages, once the array has filled one
	n      int
	shared []bool // nil (every page private) or one mark per page
	lent   atomic.Bool
	fresh  int // elements of pages copied on write or allocated by alloc
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

// all iterates over (position, element) pairs in order.
func (p *paged[T]) all() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		for base, pg := range p.eachPage() {
			for k, v := range pg {
				if !yield(base+k, v) {
					return
				}
			}
		}
	}
}

// appendTo appends every element to dst, in order.
func (p *paged[T]) appendTo(dst []T) []T {
	for pi := range p.numPages() {
		dst = append(dst, p.page(pi)...)
	}
	return dst
}

// private reports whether every page may be written in place.
func (p *paged[T]) private() bool { return p.shared == nil && !p.lent.Load() }

// settle applies a pending lent flag: every page this array holds may by
// now be reachable from a clone.
func (p *paged[T]) settle() {
	if !p.lent.Load() {
		return
	}
	p.shared = make([]bool, p.numPages())
	for i := range p.shared {
		p.shared[i] = true
	}
	p.lent.Store(false)
}

// own makes page pi writable, copying it if it is shared.
func (p *paged[T]) own(pi int) {
	p.settle()
	if p.shared == nil || !p.shared[pi] {
		return
	}
	p.shared[pi] = false
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
		p.settle()
		p.pages = append(p.pages, new([pageLen]T))
		if p.shared != nil {
			p.shared = append(p.shared, false)
		}
	}
	p.pages[pi][p.n&pageMask] = v
	p.n++
}

// truncate shortens the array to its first n elements.
func (p *paged[T]) truncate(n int) {
	p.settle() // so that the marks can follow the pages
	p.n = n
	np := p.numPages()
	if len(p.pages) == 0 {
		p.small = p.small[:n]
	} else {
		clear(p.pages[np:]) // release the dropped pages
		p.pages = p.pages[:np]
	}
	if np == 0 { // nothing left that could be shared
		p.small, p.shared = nil, nil
	} else if p.shared != nil {
		p.shared = p.shared[:np]
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
	p.lent.Store(true)
	c.small = p.small
	c.pages = append([]*[pageLen]T(nil), p.pages...)
	c.n = p.n
	c.lent.Store(true) // as good as lent: every page it holds is reachable from p
}

// freshBytes returns the bytes of page storage this array has copied on
// write or allocated afresh (alloc) since it was created or shared into.
func (p *paged[T]) freshBytes() int64 {
	return int64(p.fresh) * int64(reflect.TypeFor[T]().Size())
}
