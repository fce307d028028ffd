package relation

import (
	"fmt"
	"sync/atomic"
)

// This file implements the columnar image of a relation: one typed vector
// per attribute, with dictionary-encoded strings and a null bitmap per
// column. The image is derived — built lazily from the row storage,
// cached on the relation like the hash indexes, and dropped on mutation —
// so the row-major API (the algebra's correctness substrate) and the
// column-major API (the batch operators and the facade's Rows cursor)
// always describe the same tuple set.

// ColKind is the physical type of a column vector.
type ColKind uint8

// The physical column layouts. ColAny is the row-value fallback used when
// a column mixes kinds (beyond NULL) or its string dictionary overflows.
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

// defaultDictCapacity bounds the per-column string dictionary. Columns
// whose distinct-string count exceeds it fall back to the ColAny layout.
const defaultDictCapacity = 1 << 16

// dictCapacity is the active bound; tests shrink it to exercise overflow.
var dictCapacity atomic.Int64

func init() { dictCapacity.Store(defaultDictCapacity) }

// SetDictCapacity overrides the per-column dictionary capacity and
// returns the previous value. It exists for tests that force dictionary
// overflow on small data; production code leaves the default.
func SetDictCapacity(n int) int {
	return int(dictCapacity.Swap(int64(n)))
}

// Dict is a string dictionary: code i decodes to Values()[i].
type Dict struct {
	vals  []string
	index map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{index: make(map[string]int32)} }

// Add returns the code for s, interning it if new.
func (d *Dict) Add(s string) int32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.index[s] = c
	return c
}

// Code returns the code for s and whether it is interned.
func (d *Dict) Code(s string) (int32, bool) {
	c, ok := d.index[s]
	return c, ok
}

// Len returns the number of interned strings.
func (d *Dict) Len() int { return len(d.vals) }

// Value decodes a code.
func (d *Dict) Value(c int32) string { return d.vals[c] }

// Column is one attribute's vector. Exactly one payload slice is
// populated, selected by Kind; Nulls (which may be nil when no row is
// NULL) marks rows whose logical value is NULL regardless of the payload
// slot, which holds the zero value there.
type Column struct {
	Kind   ColKind
	Nulls  Bitmap
	Bools  []bool
	Ints   []int64
	Floats []float64
	Codes  []int32 // dictionary codes, paired with Dict
	Dict   *Dict
	Any    []Value // fallback layout: the values verbatim
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case ColBool:
		return len(c.Bools)
	case ColInt:
		return len(c.Ints)
	case ColFloat:
		return len(c.Floats)
	case ColString:
		return len(c.Codes)
	default:
		return len(c.Any)
	}
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.Nulls != nil && c.Nulls.Get(i) }

// Value materializes row i as a Value. It is the slow generic accessor;
// batch loops read the typed payload slices directly.
func (c *Column) Value(i int) Value {
	if c.IsNull(i) {
		return Null()
	}
	switch c.Kind {
	case ColBool:
		return Bool(c.Bools[i])
	case ColInt:
		return Int(c.Ints[i])
	case ColFloat:
		return Float(c.Floats[i])
	case ColString:
		return String_(c.Dict.Value(c.Codes[i]))
	default:
		return c.Any[i]
	}
}

// Columns is the columnar image of a relation: column vectors aligned
// with the relation's attribute order, all of equal length. It is
// immutable once built.
type Columns struct {
	attrs []string
	n     int
	cols  []Column
}

// Attrs returns the attribute names in column order (shared; read-only).
func (cs *Columns) Attrs() []string { return cs.attrs }

// Len returns the number of rows.
func (cs *Columns) Len() int { return cs.n }

// Col returns column i. The returned pointer aliases the image; callers
// must not modify it.
func (cs *Columns) Col(i int) *Column { return &cs.cols[i] }

// buildColumn vectorizes one attribute from row storage. It picks the
// narrowest layout that represents every value exactly: a uniform
// non-null kind gets its typed vector (strings subject to the dictionary
// capacity); anything mixed falls back to ColAny so the columnar image is
// always value-exact, never lossy.
func buildColumn(r *Relation, p int, dictCap int) Column {
	n := r.Len()
	pages := r.rows.eachPage() // the per-row loops below run over one page's slice at a time
	kind := KindNull
	uniform := true
kinds:
	for _, pg := range pages {
		for _, t := range pg {
			k := t[p].Kind()
			if k == KindNull {
				continue
			}
			if kind == KindNull {
				kind = k
			} else if k != kind {
				uniform = false
				break kinds
			}
		}
	}
	fallback := func() Column {
		c := Column{Kind: ColAny, Any: make([]Value, n)}
		for base, pg := range pages {
			for k, t := range pg {
				c.Any[base+k] = t[p]
				if t[p].IsNull() {
					if c.Nulls == nil {
						c.Nulls = NewBitmap(n)
					}
					c.Nulls.Set(base + k)
				}
			}
		}
		return c
	}
	if !uniform {
		return fallback()
	}
	var c Column
	setNull := func(i int) {
		if c.Nulls == nil {
			c.Nulls = NewBitmap(n)
		}
		c.Nulls.Set(i)
	}
	switch kind {
	case KindNull: // all-NULL column
		c = fallback()
	case KindBool:
		c = Column{Kind: ColBool, Bools: make([]bool, n)}
		for base, pg := range pages {
			for k, t := range pg {
				if t[p].IsNull() {
					setNull(base + k)
				} else {
					c.Bools[base+k] = t[p].AsBool()
				}
			}
		}
	case KindInt:
		c = Column{Kind: ColInt, Ints: make([]int64, n)}
		for base, pg := range pages {
			for k, t := range pg {
				if t[p].IsNull() {
					setNull(base + k)
				} else {
					c.Ints[base+k] = t[p].AsInt()
				}
			}
		}
	case KindFloat:
		c = Column{Kind: ColFloat, Floats: make([]float64, n)}
		for base, pg := range pages {
			for k, t := range pg {
				if t[p].IsNull() {
					setNull(base + k)
				} else {
					c.Floats[base+k] = t[p].AsFloat()
				}
			}
		}
	case KindString:
		c = Column{Kind: ColString, Codes: make([]int32, n), Dict: NewDict()}
		for base, pg := range pages {
			for k, t := range pg {
				if t[p].IsNull() {
					setNull(base + k)
					continue
				}
				s := t[p].AsString()
				if _, ok := c.Dict.Code(s); !ok && c.Dict.Len() >= dictCap {
					return fallback() // dictionary overflow
				}
				c.Codes[base+k] = c.Dict.Add(s)
			}
		}
	}
	return c
}

// buildColumns vectorizes every attribute of the relation.
func buildColumns(r *Relation) *Columns {
	cap := int(dictCapacity.Load())
	cs := &Columns{attrs: r.attrs, n: r.Len(), cols: make([]Column, len(r.attrs))}
	for p := range r.attrs {
		cs.cols[p] = buildColumn(r, p, cap)
	}
	return cs
}

// Columns returns the relation's cached columnar image, building it on
// first use. Like index builds, concurrent readers may trigger the build;
// the cache is internally locked. Mutation drops the image.
func (r *Relation) Columns() *Columns {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cols == nil {
		r.cols = buildColumns(r)
	}
	return r.cols
}

// ColumnsBuilt reports whether the columnar image is currently cached,
// for tests asserting the invalidate-on-mutation lifecycle.
func (r *Relation) ColumnsBuilt() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols != nil
}
