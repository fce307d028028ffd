package relation

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// This file implements the columnar image of a relation's rows, kept in
// per-page pieces: one immutable page image for each page of the row
// storage (paged.go), holding that page's typed vectors — dictionary-coded
// strings, a null bitmap per column. An image is derived from the rows it
// describes, built the first time Batches reaches its page, and never
// written afterwards; it is kept in the page's slot (pageSlot), so every
// relation that shares the page finds it, and a mutation parts with the
// slots of the row pages it wrote and no others.
// The row-major API (the algebra's correctness substrate) and the
// column-major API (the batch operators and the facade's Rows cursor)
// therefore always describe the same tuple set, and what a reader pays
// after an update follows the delta, not the relation.

// ColKind is the physical type of a column vector.
type ColKind uint8

// The physical column layouts, chosen per page: ColAny is the row-value
// fallback for a page whose column mixes kinds (beyond NULL) or holds only
// NULLs.
const (
	ColAny ColKind = iota
	ColBool
	ColInt
	ColFloat
	ColString
)

// String names the column kind for diagnostics.
func (k ColKind) String() string {
	switch k {
	case ColAny:
		return "any"
	case ColBool:
		return "bool"
	case ColInt:
		return "int"
	case ColFloat:
		return "float"
	case ColString:
		return "string"
	default:
		return fmt.Sprintf("colkind(%d)", uint8(k))
	}
}

// Bitmap is a fixed-size bit set; bit i marks row i (here: NULL rows).
type Bitmap []uint64

// NewBitmap returns a bitmap able to hold n bits, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Dict is the string dictionary of one column of one page image: code i
// decodes to Value(i). It holds at most BatchSize strings. Codes of
// different dictionaries are unrelated.
type Dict struct{ vals []string }

// Len returns the number of distinct strings.
func (d *Dict) Len() int { return len(d.vals) }

// Value decodes a code.
func (d *Dict) Value(c int32) string { return d.vals[c] }

// column is one attribute's vector over one page. Exactly one payload
// slice is populated, selected by kind; nulls (nil when no row of the page
// is NULL) marks rows whose logical value is NULL regardless of the
// payload slot, which holds the zero value there.
type column struct {
	kind   ColKind
	nulls  Bitmap
	bools  []bool
	ints   []int64
	floats []float64
	codes  []int32 // dictionary codes, paired with dict
	dict   *Dict
	any    []Value // fallback layout: the values verbatim
}

func (c *column) isNull(i int) bool { return c.nulls != nil && c.nulls.Get(i) }

// value materializes row i as a Value. It is the slow generic accessor;
// batch loops read the typed payload slices directly.
func (c *column) value(i int) Value {
	if c.isNull(i) {
		return Null()
	}
	switch c.kind {
	case ColBool:
		return Bool(c.bools[i])
	case ColInt:
		return Int(c.ints[i])
	case ColFloat:
		return Float(c.floats[i])
	case ColString:
		return String_(c.dict.Value(c.codes[i]))
	default:
		return c.any[i]
	}
}

// pageImage is the columnar image of one row page: column vectors aligned
// with the relation's attribute order, all n long. It is immutable once
// built, and it names no attributes, so the relations that share the page
// — clones and renamings — share the image without marking it.
type pageImage struct {
	n    int
	cols []column
}

// buildPageImage vectorizes the rows of one page.
func buildPageImage(pg []Tuple, arity int) *pageImage {
	im := &pageImage{n: len(pg), cols: make([]column, arity)}
	intern := make(map[string]int32) // scratch of the page's string columns; only the value tables are kept
	for p := range im.cols {
		im.cols[p] = buildColumn(pg, p, intern)
	}
	return im
}

// buildColumn vectorizes attribute p of one page. It picks the narrowest
// layout that represents every value of the page exactly: a uniform
// non-null kind gets its typed vector; anything mixed falls back to ColAny,
// so an image is always value-exact, never lossy.
func buildColumn(pg []Tuple, p int, intern map[string]int32) column {
	n := len(pg)
	kind := KindNull
	for _, t := range pg {
		k := t[p].kind
		if k == KindNull || k == kind {
			continue
		}
		if kind != KindNull {
			kind = KindNull // mixed
			break
		}
		kind = k
	}
	var c column
	setNull := func(i int) {
		if c.nulls == nil {
			c.nulls = NewBitmap(n)
		}
		c.nulls.Set(i)
	}
	switch kind {
	case KindNull: // mixed kinds, or nothing but NULLs
		c = column{kind: ColAny, any: make([]Value, n)}
		for i, t := range pg {
			c.any[i] = t[p]
			if t[p].IsNull() {
				setNull(i)
			}
		}
	case KindBool:
		c = column{kind: ColBool, bools: make([]bool, n)}
		for i, t := range pg {
			if t[p].IsNull() {
				setNull(i)
			} else {
				c.bools[i] = t[p].b
			}
		}
	case KindInt:
		c = column{kind: ColInt, ints: make([]int64, n)}
		for i, t := range pg {
			if t[p].IsNull() {
				setNull(i)
			} else {
				c.ints[i] = t[p].i
			}
		}
	case KindFloat:
		c = column{kind: ColFloat, floats: make([]float64, n)}
		for i, t := range pg {
			if t[p].IsNull() {
				setNull(i)
			} else {
				c.floats[i] = t[p].f
			}
		}
	case KindString:
		clear(intern)
		c = column{kind: ColString, codes: make([]int32, n), dict: &Dict{}}
		for i, t := range pg {
			if t[p].IsNull() {
				setNull(i)
				continue
			}
			s := t[p].s
			code, ok := intern[s]
			if !ok {
				code = int32(len(c.dict.vals))
				c.dict.vals = append(c.dict.vals, s)
				intern[s] = code
			}
			c.codes[i] = code
		}
	}
	return c
}

// pageSlot holds what has been derived from one row page: its columnar
// image and its encoded section (codec.go). The slot belongs to the page,
// not to a relation: every relation that shares the page — clones and
// renamings, made before or after a form was derived — holds the same
// slot, so a form derived through any of them serves all of them. Each
// form is set once, atomically, by whoever derives it first. A relation
// that writes the page parts with the slot (dropSlot, dropSlotsFrom) and
// takes a fresh one the next time a form of the new page is asked for.
type pageSlot struct {
	image   atomic.Pointer[pageImage]
	section atomic.Pointer[Section]
}

// slotTable returns derived grown to one entry per row page. Caller holds
// r.mu.
func (r *Relation) slotTable() []*pageSlot {
	if n := r.rows.numPages(); len(r.derived) < n {
		r.derived = append(r.derived, make([]*pageSlot, n-len(r.derived))...)
	}
	return r.derived
}

// slot returns the slot of row page pi, giving the page one if it has
// none. Readers may race for it like they do for an index.
func (r *Relation) slot(pi int) *pageSlot {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.slotTable()
	if t[pi] == nil {
		t[pi] = new(pageSlot)
	}
	return t[pi]
}

// shareSlots gives c the slot of every row page of r, first giving one to
// each page that has none — or a form derived through r after this call
// would be lost to c and everything cloned from it. Caller holds r.mu.
func (r *Relation) shareSlots(c *Relation) {
	t := r.slotTable()
	for pi, sl := range t {
		if sl == nil {
			t[pi] = new(pageSlot)
		}
	}
	c.derived = slices.Clone(t)
}

// pageImage returns the image of row page pi, building it if the page has
// none. Like index builds, concurrent readers may trigger the build; it
// runs outside mu — a page is immutable while readers hold the relation —
// so lookups of cached indexes never wait for it, and when two readers
// race for a page the first image stored is the one both use.
func (r *Relation) pageImage(pi int, s *OpStats) *pageImage {
	sl := r.slot(pi)
	if im := sl.image.Load(); im != nil {
		return im
	}
	s.imagePages(1)
	sl.image.CompareAndSwap(nil, buildPageImage(r.rows.page(pi), len(r.attrs)))
	return sl.image.Load()
}

// dropSlot parts with the slot of row page pi, which is being written.
func (r *Relation) dropSlot(pi int) {
	if pi < len(r.derived) {
		r.derived[pi] = nil
	}
}

// dropSlotsFrom parts with the slots of row page pi and every later page.
func (r *Relation) dropSlotsFrom(pi int) {
	if pi < len(r.derived) {
		clear(r.derived[pi:])
		r.derived = r.derived[:pi]
	}
}

// PageImages returns the number of row pages whose image is built, for
// tests asserting what a mutation drops and what a selection builds.
func (r *Relation) PageImages() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, sl := range r.derived {
		if sl != nil && sl.image.Load() != nil {
			n++
		}
	}
	return n
}
