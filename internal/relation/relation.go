package relation

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"strings"

	"dwcomplement/internal/lockrank"
)

// ErrSchemaMismatch is wrapped by operators that require equal attribute
// sets (union, difference, intersection) when the inputs disagree, so
// callers can detect the condition with errors.Is.
var ErrSchemaMismatch = errors.New("schema mismatch")

// Tuple is a row of values, positionally aligned with the attribute order
// of a Relation. A relation does not store tuples: it builds them from its
// column pages when asked (All, SortedTuples) and copies the values of the
// ones it is handed (Insert).
type Tuple []Value

// scratchTuple returns a tuple of n values to fill and read again, in buf
// when it is long enough.
func scratchTuple(buf *[8]Value, n int) Tuple {
	if n <= len(buf) {
		return buf[:n]
	}
	return make(Tuple, n)
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// key returns the canonical injective string encoding of the tuple, which
// Fingerprint sorts.
func (t Tuple) key() string {
	var b []byte
	for _, v := range t {
		b = v.appendKey(b)
	}
	return string(b)
}

// hash64 returns the order-independent 64-bit hash of the tuple: the sum
// of its values' mixed hashes. Two tuples that are Equal under any column
// alignment hash identically, so aligned probes across relations reuse
// precomputed row hashes instead of re-encoding.
func (t Tuple) hash64() uint64 {
	var h uint64
	for _, v := range t {
		h += v.hash64()
	}
	return h
}

// Relation is an in-memory relation with set semantics: inserting a
// duplicate tuple is a no-op, as in the set-based relational algebra the
// paper uses. Attribute order is fixed at construction and is purely
// presentational; all algebra operators match attributes by name.
//
// Rows are stored column-major in pages of typed vectors (page.go); a
// Tuple is built from a page on demand and never stored. Membership is the
// relation's hash table over every attribute (index.go), whose key hashes
// are the row hashes the batch operators reuse. Operators appending rows
// known to be distinct (emitter, page.go) append their hashes only; the
// first membership probe enters them in the table. Row pages and every
// table's arrays are paged arrays whose pages a clone shares until one
// side writes them.
//
// Concurrency: any number of goroutines may read a relation (including
// building its tables and page sections, which is internally synchronized,
// and cloning it), but mutation requires exclusive access, as it always
// has in this package. Mutating updates every table in place and parts
// with the slots of the row pages it writes.
type Relation struct {
	attrs []string // never written: relations that share them share the slice
	rows  rowPages
	set   table // the membership table: set.hashes.at(i) is the hash of row i

	mu      lockrank.Mutex[lockrank.Relation] // guards indexes/derived and building set's slots; rows follow the package-wide contract above
	indexes map[string]*Index
	derived []*pageSlot // derived[k], where set, holds the section of row page k (page.go)
}

// New creates an empty relation over the given attribute names. It panics
// on duplicate or empty names (programming errors, not data errors).
func New(attrs ...string) *Relation {
	return newPresized(slices.Clone(attrs), 0)
}

// newPresized creates an empty relation about to receive n rows: the page
// tables are allocated up front. The relation keeps attrs, which the
// caller must not write afterwards.
func newPresized(attrs []string, n int) *Relation {
	r, err := newOwning(attrs, n)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// newChecked is newPresized for attribute names that are data (the
// decoder's): an empty or duplicate name is an error, not a panic, and
// attrs stays the caller's.
func newChecked(attrs []string, n int) (*Relation, error) {
	return newOwning(slices.Clone(attrs), n)
}

func newOwning(attrs []string, n int) (*Relation, error) {
	r := &Relation{attrs: attrs}
	if n > 0 {
		r.rows.pages = make([]rowPage, 0, (n+pageMask)>>pageBits)
		r.set.hashes.reserve(n)
	}
	if slices.Contains(attrs, "") {
		return nil, errors.New("relation: empty attribute name")
	}
	if a, dup := duplicate(attrs); dup {
		return nil, fmt.Errorf("relation: duplicate attribute %q", a)
	}
	return r, nil
}

// duplicate returns a name that occurs twice in attrs, if one does:
// pairwise for the handful of attributes a relation has, by sorting a copy
// for a list a decoder was handed, which may be long.
func duplicate(attrs []string) (string, bool) {
	if len(attrs) > 16 {
		attrs = slices.Sorted(slices.Values(attrs))
		for i := 1; i < len(attrs); i++ {
			if attrs[i] == attrs[i-1] {
				return attrs[i], true
			}
		}
		return "", false
	}
	for i, a := range attrs {
		if slices.Contains(attrs[:i], a) {
			return a, true
		}
	}
	return "", false
}

// NewFromSchema creates an empty relation with the schema's attribute order.
func NewFromSchema(s *Schema) *Relation { return New(s.AttrNames()...) }

// Attrs returns the attribute names in column order. The caller must not
// modify the returned slice.
func (r *Relation) Attrs() []string { return r.attrs }

// AttrSet returns the relation's attribute names as a set.
func (r *Relation) AttrSet() AttrSet { return NewAttrSet(r.attrs...) }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Len returns the number of tuples; a nil relation has none.
func (r *Relation) Len() int {
	if r == nil {
		return 0
	}
	return r.rows.len()
}

// IsEmpty reports whether the relation has no tuples; a nil relation has
// none.
func (r *Relation) IsEmpty() bool { return r.Len() == 0 }

// Pos returns the column index of the named attribute and whether it
// exists. Relations have a handful of attributes: a scan beats a map.
func (r *Relation) Pos(attr string) (int, bool) {
	i := slices.Index(r.attrs, attr)
	return i, i >= 0
}

// mustPos returns the column index of the named attribute. It panics on
// unknown attributes.
func (r *Relation) mustPos(attr string) int {
	i, ok := r.Pos(attr)
	if !ok {
		panic(fmt.Sprintf("relation: unknown attribute %q", attr))
	}
	return i
}

// cols returns the column indexes of attributes r has.
func (r *Relation) cols(attrs []string) []int {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		pos[i] = slices.Index(r.attrs, a)
	}
	return pos
}

// HasAttr reports whether the relation has the named attribute.
func (r *Relation) HasAttr(attr string) bool {
	return slices.Contains(r.attrs, attr)
}

// tableSizeFor returns the power-of-two slot count for n rows, keeping
// the load factor at or below ~2/3.
func tableSizeFor(n int) int {
	size := 8
	for size*2 < n*3 {
		size <<= 1
	}
	return size
}

// appendTuple appends t, known to be absent, with its hash h.
func (r *Relation) appendTuple(t Tuple, h uint64) {
	r.set.hashes.append(h)
	pg, k := r.rows.tail(len(r.attrs))
	for c := range t {
		pg[c].set(k, k, t[c])
	}
	r.rows.n++
}

// findAligned returns the index of the row equal to t, or -1. t is in r's
// column order, or, under perm, foreign: row column c holds t[perm[c]].
func (r *Relation) findAligned(h uint64, t Tuple, perm []int) int32 {
	r.set.cover(&r.mu)
	all := allCols(len(r.attrs))
	if perm == nil {
		perm = all
	}
	_, ri := r.set.seek(h)
	for ; ri >= 0; ri = r.set.after(ri) {
		if r.rows.matches(int(ri), all, t, perm) {
			return ri
		}
	}
	return -1
}

// Insert adds a tuple and reports whether it was new. It panics if the
// tuple arity does not match the relation (a programming error). The
// relation copies the values; t stays the caller's.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != len(r.attrs) {
		panic(fmt.Sprintf("relation: arity mismatch: tuple has %d values, relation has %d attributes", len(t), len(r.attrs)))
	}
	h := t.hash64()
	if r.findAligned(h, t, nil) >= 0 {
		return false
	}
	r.appendTuple(t, h)
	r.noteInserted(r.rows.len() - 1)
	return true
}

// InsertValues is Insert with variadic values, convenient in tests and
// examples: r.InsertValues(String_("TV set"), String_("Mary")).
func (r *Relation) InsertValues(vals ...Value) bool { return r.Insert(Tuple(vals)) }

// InsertAll inserts every tuple of o (which must have the same attribute
// set) into r, aligning columns by name. It returns the number of tuples
// actually added.
func (r *Relation) InsertAll(o *Relation) int {
	from, perm := r.rows.len(), alignment(o, r, nil)
	e := newEmitter(r, source{rows: &o.rows, cols: perm}, source{})
	// o is a set: its rows need checking against r's alone.
	members(o, r, perm, &o.set.hashes, nil, func(i int, held bool) bool {
		if !held {
			e.emit(o.set.hashes.at(i), int32(i), 0)
		}
		return true
	})
	if e.done(nil); r.rows.len() > from {
		r.noteInserted(from)
	}
	return r.rows.len() - from
}

// Contains reports whether the relation contains the tuple.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != len(r.attrs) {
		return false
	}
	return r.findAligned(t.hash64(), t, nil) >= 0
}

// ContainsAligned reports whether r contains the tuple t that is laid out
// in o's attribute order; o must have the same attribute set as r.
func (r *Relation) ContainsAligned(t Tuple, o *Relation) bool {
	var buf [8]int
	return r.findAligned(t.hash64(), t, alignment(o, r, &buf)) >= 0
}

// Apply deletes the tuples of del from r, then inserts those of ins, and
// reports how many tuples left and how many arrived. del and ins have r's
// attribute set in any column order, and either may be nil. Each tuple is
// found by its stored hash and its cells are copied: applying a delta of
// a few tuples costs what Delete and Insert cost for them.
func (r *Relation) Apply(del, ins *Relation) (deleted, inserted int) {
	var buf [8]Value
	var pbuf [8]int
	t := scratchTuple(&buf, len(r.attrs))
	for k, d := range [2]*Relation{del, ins} {
		if d == nil || d.IsEmpty() {
			continue
		}
		perm := alignment(d, r, &pbuf)
		for i := range d.Len() {
			for c, p := range perm {
				t[c] = d.rows.cell(i, p)
			}
			h := d.set.hashes.at(i)
			switch j := r.findAligned(h, t, nil); {
			case k == 0 && j >= 0:
				r.deleteAt(j)
				deleted++
			case k == 1 && j < 0:
				r.appendTuple(t, h)
				r.noteInserted(r.rows.len() - 1)
				inserted++
			}
		}
	}
	return deleted, inserted
}

// Delete removes a tuple and reports whether it was present. Deletion is
// O(1) via swap-with-last: the last row's cells move into the victim's
// place.
func (r *Relation) Delete(t Tuple) bool {
	if len(t) != len(r.attrs) {
		return false
	}
	i := r.findAligned(t.hash64(), t, nil)
	if i < 0 {
		return false
	}
	r.deleteAt(i)
	return true
}

// deleteAt removes row i.
func (r *Relation) deleteAt(i int32) {
	r.noteDeleted(i)
	if last := r.rows.len() - 1; int(i) != last {
		r.rows.move(last, int(i))
	}
	r.rows.dropLast()
}

// All returns an iterator over every tuple, in storage order. Each tuple
// is built from the row pages as the iteration reaches it, in storage the
// iteration allocates in chunks of rows: the caller may keep it, and
// writing to it writes to no relation. The relation must not be mutated
// mid-iteration. This is the row-major access path; Batches is the
// column-major one.
func (r *Relation) All() iter.Seq[Tuple] {
	return func(yield func(Tuple) bool) {
		w := len(r.attrs)
		var chunk []Value
		for i := range r.rows.len() {
			if chunk == nil || len(chunk) < w {
				chunk = make([]Value, w*min(r.rows.len()-i, 64))
			}
			t := Tuple(chunk[:w:w])
			chunk = chunk[w:]
			if !yield(r.rows.read(i, t)) {
				return
			}
		}
	}
}

// SortedTuples returns every row as a fresh tuple, in Order — a
// deterministic order for printing and golden tests. The tuples share one
// allocation, each capped at its own values, so the caller may keep,
// reorder and modify them.
func (r *Relation) SortedTuples() []Tuple {
	w, order := len(r.attrs), r.Order()
	vals, out := make([]Value, w*len(order)), make([]Tuple, len(order))
	for i, row := range order {
		out[i] = r.rows.read(int(row), vals[i*w:(i+1)*w:(i+1)*w])
	}
	return out
}

// Order returns the row numbers of r (storage positions, as Batch.Start
// counts them) in the total tuple order: column by column under
// Value.Less. It is the one implementation of that order — responses,
// CSV and String all read rows in it — and it runs on the column vectors:
// a column every page lays out in one typed layout compares through an
// order-preserving key per row (orderKeys), any other cell by cell under
// orderValues.
func (r *Relation) Order() []int32 {
	perm := make([]int32, r.rows.len())
	for i := range perm {
		perm[i] = int32(i)
	}
	o := rowOrder{rows: &r.rows, keys: make([][]uint64, len(r.attrs)), keyed: make([]bool, len(r.attrs))}
	o.sort(perm, 0)
	return perm
}

// rowOrder sorts the rows of one relation in the total tuple order.
type rowOrder struct {
	rows  *rowPages
	keys  [][]uint64 // keys[c]: column c's key per row, or nil: compare its cells
	keyed []bool     // keyed[c]: keys[c] has been decided
	words []uint64   // pack's scratch
}

// key returns column c's keys, nil if it has none. A column is keyed when
// the sort first reaches it: columns after one that tells the rows apart
// cost nothing.
func (o *rowOrder) key(c int) []uint64 {
	if !o.keyed[c] {
		o.keys[c], o.keyed[c] = o.rows.orderKeys(c), true
	}
	return o.keys[c]
}

// sort orders perm, rows that tie on the columns before c, by the columns
// from c on: a column at a time as a plain integer sort (pack), each run of
// rows that tie on it by the next; by comparing column after column from c
// where a column cannot be packed.
func (o *rowOrder) sort(perm []int32, c int) {
	for ; len(perm) > 1 && c < len(o.keys); c++ {
		keys := o.key(c)
		if !o.pack(perm, keys) {
			slices.SortFunc(perm, func(a, b int32) int { return o.compare(a, b, c) })
			return
		}
		if keys[perm[0]] == keys[perm[len(perm)-1]] {
			continue // every row ties: the next column decides
		}
		for i := 0; i < len(perm); {
			j := i + 1
			for j < len(perm) && keys[perm[j]] == keys[perm[i]] {
				j++
			}
			o.sort(perm[i:j], c+1)
			i = j
		}
		return
	}
}

// pack sorts perm by keys, and reports that it did, when there are keys
// and their spread over perm leaves room for a row number beside them in
// 64 bits: each row becomes one word, its key's offset from the smallest
// shifted above its row number.
func (o *rowOrder) pack(perm []int32, keys []uint64) bool {
	if keys == nil {
		return false
	}
	lo, hi := keys[perm[0]], keys[perm[0]]
	for _, i := range perm {
		lo, hi = min(lo, keys[i]), max(hi, keys[i])
	}
	shift := bits.Len(uint(o.rows.n - 1))
	if bits.Len64(hi-lo)+shift > 64 {
		return false
	}
	if cap(o.words) < len(perm) {
		o.words = make([]uint64, len(perm))
	}
	words := o.words[:len(perm)]
	for k, i := range perm {
		words[k] = (keys[i]-lo)<<shift | uint64(i)
	}
	slices.Sort(words)
	for k, w := range words {
		perm[k] = int32(w & (1<<shift - 1))
	}
	return true
}

// compare orders rows a and b by the columns from c on.
func (o *rowOrder) compare(a, b int32, c int) int {
	for ; c < len(o.keys); c++ {
		if k := o.key(c); k != nil {
			if x := cmp.Compare(k[a], k[b]); x != 0 {
				return x
			}
			continue
		}
		va, vb := o.rows.cell(int(a), c), o.rows.cell(int(b), c)
		if x := orderValues(&va, &vb); x != 0 {
			return x
		}
	}
	return 0
}

// orderKeys returns a key per row of column c whose order is orderValues'
// — NULL 0, false 1 and true 2, an int its bits with the sign flipped, a
// float floatKey, a string 1 + its rank among the strings of every page's
// dictionary — or nil where no such key exists: the pages lay the column
// out in different layouts or in ColAny, or a NULL meets MinInt64, whose
// key is 0 too.
func (s *rowPages) orderKeys(c int) []uint64 {
	kind := ColAny // until a page holds a value
	for _, pg := range s.pages {
		switch col := &pg[c]; {
		case col.kind == ColAny && col.any == nil: // NULLs only
		case col.kind == ColAny || kind != ColAny && col.kind != kind:
			return nil
		default:
			kind = col.kind
		}
	}
	var ranks [][]uint64
	if kind == ColString {
		ranks = s.stringRanks(c)
	}
	keys := make([]uint64, s.n)
	nulls, minInt := false, false
	for pi, pg := range s.pages {
		col, n := &pg[c], s.rowsOn(pi)
		out := keys[pi<<pageBits:][:n]
		switch {
		case col.kind != kind: // NULLs only: keys 0
		case kind == ColBool:
			for k, v := range col.bools[:n] {
				out[k] = 1
				if v {
					out[k] = 2
				}
			}
		case kind == ColInt:
			for k, v := range col.ints[:n] {
				out[k] = uint64(v) ^ 1<<63
				minInt = minInt || v == math.MinInt64
			}
		case kind == ColFloat:
			for k, v := range col.floats[:n] {
				out[k] = floatKey(v)
			}
		case kind == ColString:
			for k, code := range col.codes[:n] {
				out[k] = ranks[pi][code]
			}
		}
		if col.nulls != nil {
			for k := range out {
				if col.nulls.get(k) {
					out[k], nulls = 0, true
				}
			}
		}
	}
	if nulls && minInt {
		return nil
	}
	return keys
}

// floatKey maps a float to a key whose order is cmp.Compare's on floats:
// NaN (1) below every number, -0 equal to +0. Numbers map above 1: the
// bits of a negative float inverted, those of a positive one with the sign
// bit set.
func floatKey(f float64) uint64 {
	switch {
	case f != f:
		return 1
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// stringRanks returns, per page, 1 + the rank of each code of column c's
// dictionary among the strings of every page's dictionary, dead strings
// included: one sort of the dictionaries, not of the rows, and equal
// strings on two pages share a rank. A page with no dictionary (its column
// holds NULLs only) has no table.
func (s *rowPages) stringRanks(c int) [][]uint64 {
	type entry struct {
		s        string
		pi, code int32
	}
	total := 0
	for _, pg := range s.pages {
		if d := pg[c].dict; d != nil {
			total += len(d.vals)
		}
	}
	all, flat, ranks := make([]entry, 0, total), make([]uint64, total), make([][]uint64, len(s.pages))
	for pi, pg := range s.pages {
		if d := pg[c].dict; d != nil {
			ranks[pi], flat = flat[:len(d.vals)], flat[len(d.vals):]
			for code, v := range d.vals {
				all = append(all, entry{v, int32(pi), int32(code)})
			}
		}
	}
	slices.SortFunc(all, func(a, b entry) int { return strings.Compare(a.s, b.s) })
	rank := uint64(0)
	for i, e := range all {
		if i == 0 || e.s != all[i-1].s {
			rank++
		}
		ranks[e.pi][e.code] = rank
	}
	return ranks
}

// Get returns the value of the named attribute in tuple t (owned by r).
// It panics on unknown attributes.
func (r *Relation) Get(t Tuple, attr string) Value { return t[r.mustPos(attr)] }

// Clone returns an independent copy of the relation: a mutation of either
// side is invisible to the other. It copies page tables, not pages — the
// copy shares every storage page of the original (rows and the arrays of
// every table), and whichever side writes a page first copies that page —
// so its cost is proportional to rows/pageLen and a later mutation's to
// the pages it touches. The page slots are shared as well. Clone may run
// beside readers of r and beside other Clones of r.
func (r *Relation) Clone() *Relation {
	c := &Relation{attrs: r.attrs}
	r.shareStorage(c)
	// Carry cached indexes over, rebound to the clone: the warehouse
	// applies refresh deltas to clones (copy-on-write), and cloning must
	// not cool the indexes that insert-path maintenance keeps warm across
	// updates.
	r.mu.Lock()
	if len(r.indexes) > 0 {
		c.indexes = make(map[string]*Index, len(r.indexes))
		for k, ix := range r.indexes {
			cx := newIndex(c, ix.attrs, ix.pos)
			ix.shareTo(cx.table)
			c.indexes[k] = cx
		}
	}
	r.mu.Unlock()
	return c
}

// shareStorage gives c, which must hold no rows, r's rows and membership
// table as shared pages, and the slots of the row pages.
func (r *Relation) shareStorage(c *Relation) {
	r.set.cover(&r.mu) // share a valid table rather than building it in both copies
	r.rows.shareTo(&c.rows)
	r.set.shareTo(&c.set)
	r.mu.Lock()
	r.shareSlots(c)
	r.mu.Unlock()
}

// CopiedBytes returns the bytes of storage pages — rows and the arrays of
// every table — that mutations of r have copied because a clone shared
// them, or re-allocated because a hash table grew, since r was created or
// cloned. After a refresh applied a delta to a fresh clone, this is what
// the copy-on-write apply cost: a few pages per changed tuple,
// independent of r's size unless a table grew.
func (r *Relation) CopiedBytes() int64 {
	n := r.rows.fresh + r.set.copied()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ix := range r.indexes {
		n += ix.copied()
	}
	return n
}

// Equal reports whether r and o have the same attribute set and the same
// set of tuples (column order is irrelevant).
func (r *Relation) Equal(o *Relation) bool {
	if r == nil || o == nil {
		return r == o
	}
	if r.rows.len() != o.rows.len() || !SameAttrs(r, o) {
		return false
	}
	return o.allIn(r)
}

// allIn reports whether every tuple of r occurs in o, which must have the
// same attribute set.
func (r *Relation) allIn(o *Relation) bool {
	var buf [8]int
	return members(r, o, alignment(r, o, &buf), &r.set.hashes, nil, func(_ int, held bool) bool { return held })
}

// SubsetOf reports whether every tuple of r occurs in o (same attribute
// set required; otherwise false).
func (r *Relation) SubsetOf(o *Relation) bool {
	return SameAttrs(r, o) && r.allIn(o)
}

// Fingerprint returns an order-independent canonical encoding of the
// relation's content (attribute set + tuple set). Two relations are Equal
// iff their fingerprints agree, which gives states a cheap identity for
// the injectivity experiments (Proposition 2.1).
func (r *Relation) Fingerprint() string {
	attrs := slices.Sorted(slices.Values(r.attrs))
	perm, t := r.cols(attrs), make(Tuple, len(attrs))
	keys := make([]string, r.rows.len())
	for i := range keys {
		for j, p := range perm {
			t[j] = r.rows.cell(i, p)
		}
		keys[i] = t.key()
	}
	slices.Sort(keys)
	var b strings.Builder
	b.WriteString(strings.Join(attrs, ",") + ";")
	for _, k := range keys {
		b.WriteString(k + "\n")
	}
	return b.String()
}

// String renders the relation as an aligned text table with sorted rows.
func (r *Relation) String() string {
	widths := make([]int, len(r.attrs))
	for i, a := range r.attrs {
		widths[i] = len(a)
	}
	rows := r.SortedTuples()
	cells := make([][]string, len(rows))
	for i, t := range rows {
		cells[i] = make([]string, len(t))
		for j, v := range t {
			cells[i][j] = v.String()
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for j, s := range vals {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			if j < len(vals)-1 { // no trailing padding on the last column
				b.WriteString(strings.Repeat(" ", widths[j]-len(s)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.attrs)
	for j := range r.attrs {
		if j > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[j]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	b.WriteString(fmt.Sprintf("(%d tuple", len(rows)))
	if len(rows) != 1 {
		b.WriteByte('s')
	}
	b.WriteString(")\n")
	return b.String()
}

// alignment returns, for each column of dst, the column index in src
// holding the same attribute. Both relations must have equal attribute
// sets; it panics otherwise (operator-level code validates first). The
// list is read only: relations with one column order share allCols'. It
// is held in buf when buf is long enough, and its caller keeps it no
// longer than buf; nil asks for a list of its own.
func alignment(src, dst *Relation, buf *[8]int) []int {
	if slices.Equal(src.attrs, dst.attrs) {
		return allCols(len(dst.attrs))
	}
	var perm []int
	if buf != nil && len(dst.attrs) <= len(buf) {
		perm = buf[:len(dst.attrs)]
	} else {
		perm = make([]int, len(dst.attrs))
	}
	for i, a := range dst.attrs {
		p, ok := src.Pos(a)
		if !ok {
			panic(fmt.Sprintf("relation: attribute sets differ: %q missing from source", a))
		}
		perm[i] = p
	}
	return perm
}
