package relation

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrSchemaMismatch is wrapped by operators that require equal attribute
// sets (union, difference, intersection) when the inputs disagree, so
// callers can detect the condition with errors.Is.
var ErrSchemaMismatch = errors.New("schema mismatch")

// Tuple is a row of values, positionally aligned with the attribute order
// of the Relation that owns it.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// key returns the canonical injective string encoding of the tuple. It is
// no longer the membership key (membership runs on 64-bit hashes with
// Equal re-verification); Fingerprint still uses it as the canonical
// order-independent serialization.
func (t Tuple) key() string {
	var b strings.Builder
	for _, v := range t {
		v.appendKey(&b)
		b.WriteByte('|')
	}
	return b.String()
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

// hashCols hashes the tuple's values at the given column positions.
func hashCols(t Tuple, pos []int) uint64 {
	var h uint64
	for _, p := range pos {
		h += t[p].hash64()
	}
	return h
}

// Relation is an in-memory relation with set semantics: inserting a
// duplicate tuple is a no-op, as in the set-based relational algebra the
// paper uses. Attribute order is fixed at construction and is purely
// presentational; all algebra operators match attributes by name.
//
// Membership is tracked by 64-bit tuple hashes in an open-addressed slot
// table re-verified by Value.Equal on candidate rows; per-row hashes are
// retained so the batch operators probe without re-encoding tuples.
// Tuples are immutable once inserted, which lets relations share tuple
// backing arrays (the operators alias rows instead of deep-copying
// values). Rows, hashes and slots are paged arrays (paged.go) whose pages
// a clone shares until one side writes them.
//
// Concurrency: any number of goroutines may read a relation (including
// building cached indexes and the forms derived from a page, which is
// internally synchronized, and cloning it), but mutation requires
// exclusive access, as it always has in this package. Mutating updates
// cached indexes and key-hash vectors in place and parts with the slots
// of the row pages it writes.
type Relation struct {
	attrs  []string
	pos    map[string]int
	rows   paged[Tuple]
	hashes paged[uint64] // hashes.at(i) == rows.at(i).hash64()

	// Open-addressed membership table: slots hold row index + 1, with 0
	// marking an empty slot. The table is always a power of two, probed
	// linearly from hash & mask, and deletion shifts the rest of the probe
	// run back (vacate), so it never holds tombstones.
	//
	// Bulk operators appending known-distinct rows skip the table and
	// mark it stale instead (appendRowNoTable); the first membership
	// probe rebuilds it in one pass. Join and semi-join outputs that are
	// only ever scanned never pay for a table at all.
	slots      paged[int32]
	tableStale atomic.Bool

	mu      sync.Mutex // guards indexes/keyVecs/derived; rows/slots follow the package-wide contract above
	indexes map[string]*Index
	keyVecs map[string]*keyVec
	derived []*pageSlot // derived[k], where set, holds the forms derived from row page k (column.go)
}

// New creates an empty relation over the given attribute names. It panics
// on duplicate or empty names (programming errors, not data errors).
func New(attrs ...string) *Relation {
	return newPresized(attrs, 0)
}

// newPresized creates an empty relation about to receive n rows: the first
// page of row storage and the page tables are allocated up front.
func newPresized(attrs []string, n int) *Relation {
	r, err := newChecked(attrs, n)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// newChecked is newPresized for attribute names that are data (the
// decoder's): an empty or duplicate name is an error, not a panic.
func newChecked(attrs []string, n int) (*Relation, error) {
	r := &Relation{
		attrs: append([]string(nil), attrs...),
		pos:   make(map[string]int, len(attrs)),
	}
	if n > 0 {
		r.rows.reserve(n)
		r.hashes.reserve(n)
	}
	for i, a := range attrs {
		if a == "" {
			return nil, errors.New("relation: empty attribute name")
		}
		if _, dup := r.pos[a]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a)
		}
		r.pos[a] = i
	}
	return r, nil
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

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.rows.len() }

// IsEmpty reports whether the relation has no tuples.
func (r *Relation) IsEmpty() bool { return r.rows.len() == 0 }

// Pos returns the column index of the named attribute and whether it exists.
func (r *Relation) Pos(attr string) (int, bool) {
	i, ok := r.pos[attr]
	return i, ok
}

// HasAttr reports whether the relation has the named attribute.
func (r *Relation) HasAttr(attr string) bool {
	_, ok := r.pos[attr]
	return ok
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

// rebuildTable re-derives the slot table, sized for capacity rows, from the
// row hashes. Every row is distinct, so no equality checks are needed.
func (r *Relation) rebuildTable(capacity int) {
	r.slots.alloc(tableSizeFor(capacity))
	mask := uint64(r.slots.len() - 1)
	for base, pg := range r.hashes.eachPage() {
		for k, h := range pg {
			j := h & mask
			for r.slots.at(int(j)) != 0 {
				j = (j + 1) & mask
			}
			r.slots.set(int(j), int32(base+k)+1)
		}
	}
}

// vacate empties slot s of an open-addressed table whose entries are row
// index + 1 and whose row i was probed from hashes.at(i). Backward-shift
// deletion keeps linear probing free of tombstones: each later entry of
// the run moves into the hole unless its home slot lies cyclically after
// the hole. The membership table and the index tables share it.
func vacate(slots *paged[int32], hashes *paged[uint64], s uint64) {
	mask := uint64(slots.len() - 1)
	for j := (s + 1) & mask; ; j = (j + 1) & mask {
		v := slots.at(int(j))
		if v == 0 {
			break
		}
		if home := hashes.at(int(v-1)) & mask; (j-home)&mask >= (j-s)&mask {
			slots.set(int(s), v)
			s = j
		}
	}
	slots.set(int(s), 0)
}

// appendRowNoTable appends an owned, known-distinct tuple without
// touching the membership table, marking it stale instead. Bulk
// operators whose outputs are never probed during construction use this
// (joins, semi-joins, selections, set difference); if the result is
// later probed, ensureTable rebuilds the table in one pass, and results
// that are only ever scanned never pay for a table at all.
func (r *Relation) appendRowNoTable(t Tuple, h uint64) {
	r.rows.append(t)
	r.hashes.append(h)
	if !r.tableStale.Load() {
		r.tableStale.Store(true)
	}
}

// ensureTable rebuilds the membership table if bulk appends left it
// stale. The fast path is a single atomic load; concurrent readers
// racing to rebuild serialize on mu and double-check. The store/load
// pair orders the slot writes before any reader's fast-path pass.
func (r *Relation) ensureTable() {
	if !r.tableStale.Load() {
		return
	}
	r.mu.Lock()
	if r.tableStale.Load() {
		r.rebuildTable(r.rows.len())
		r.tableStale.Store(false)
	}
	r.mu.Unlock()
}

// findRow returns the index of the row equal to t (in r's column order),
// or -1.
func (r *Relation) findRow(h uint64, t Tuple) int32 {
	_, i := r.findSlot(h, t)
	return i
}

// findSlot returns the slot and index of the row equal to t (in r's column
// order), or row -1. Linear probing from the hash; candidate rows with the
// same hash are re-verified value by value.
func (r *Relation) findSlot(h uint64, t Tuple) (uint64, int32) {
	r.ensureTable()
	if r.slots.len() == 0 {
		return 0, -1
	}
	mask := uint64(r.slots.len() - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		s := r.slots.at(int(j))
		if s == 0 {
			return 0, -1
		}
		i := s - 1
		if r.hashes.at(int(i)) == h && tuplesEqual(r.rows.at(int(i)), t) {
			return j, i
		}
	}
}

// findAligned returns the index of the row equal to the foreign-order
// tuple t under perm (row[j] corresponds to t[perm[j]]), or -1.
func (r *Relation) findAligned(h uint64, t Tuple, perm []int) int32 {
	r.ensureTable()
	if r.slots.len() == 0 {
		return -1
	}
	mask := uint64(r.slots.len() - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		s := r.slots.at(int(j))
		if s == 0 {
			return -1
		}
		i := s - 1
		if r.hashes.at(int(i)) != h {
			continue
		}
		row := r.rows.at(int(i))
		eq := true
		for k := range row {
			if !row[k].Equal(t[perm[k]]) {
				eq = false
				break
			}
		}
		if eq {
			return i
		}
	}
}

// tuplesEqual compares same-order tuples by Value.Equal.
func tuplesEqual(a, b Tuple) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// appendRow appends an owned tuple known to be absent, with its
// precomputed hash. The relation takes ownership of t's backing array;
// callers must not mutate it afterwards (tuples are immutable by package
// contract).
func (r *Relation) appendRow(t Tuple, h uint64) {
	n := r.rows.len()
	if (n+1)*3 >= r.slots.len()*2 {
		r.rebuildTable(2 * (n + 1))
	}
	// The caller guarantees absence, so the first empty slot of the probe
	// run preserves the set invariant.
	r.slots.set(int(r.slotOf(h, 0)), int32(n)+1)
	r.rows.append(t)
	r.hashes.append(h)
}

// slotOf returns the first slot of the probe run from hash h that holds v
// (row index + 1, or 0 for the run's first empty slot).
func (r *Relation) slotOf(h uint64, v int32) uint64 {
	mask := uint64(r.slots.len() - 1)
	j := h & mask
	for r.slots.at(int(j)) != v {
		j = (j + 1) & mask
	}
	return j
}

// InsertOwned is Insert for a tuple the caller hands over: the relation
// keeps t itself instead of a copy, so the caller must not write to it
// afterwards. The CSV loaders use it — one allocation per row.
func (r *Relation) InsertOwned(t Tuple) bool {
	if len(t) != len(r.attrs) {
		panic(fmt.Sprintf("relation: arity mismatch: tuple has %d values, relation has %d attributes", len(t), len(r.attrs)))
	}
	h := t.hash64()
	if r.findRow(h, t) >= 0 {
		return false
	}
	r.appendRow(t, h)
	r.noteInserted(r.rows.len() - 1)
	return true
}

// Insert adds a tuple and reports whether it was new. It panics if the
// tuple arity does not match the relation (a programming error). The
// relation keeps its own copy of the tuple.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != len(r.attrs) {
		panic(fmt.Sprintf("relation: arity mismatch: tuple has %d values, relation has %d attributes", len(t), len(r.attrs)))
	}
	h := t.hash64()
	if r.findRow(h, t) >= 0 {
		return false
	}
	r.appendRow(t.Clone(), h)
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
	perm := alignment(o, r)
	added := 0
	for pi := range o.rows.numPages() {
		hashes := o.hashes.page(pi)
		for k, t := range o.rows.page(pi) {
			if r.findAligned(hashes[k], t, perm) >= 0 {
				continue
			}
			r.appendRow(permute(t, perm), hashes[k])
			added++
		}
	}
	if added > 0 {
		r.noteInserted(r.rows.len() - added)
	}
	return added
}

// Contains reports whether the relation contains the tuple.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != len(r.attrs) {
		return false
	}
	return r.findRow(t.hash64(), t) >= 0
}

// ContainsAligned reports whether r contains the tuple t that is laid out
// in o's attribute order; o must have the same attribute set as r.
func (r *Relation) ContainsAligned(t Tuple, o *Relation) bool {
	return r.findAligned(t.hash64(), t, alignment(o, r)) >= 0
}

// Delete removes a tuple and reports whether it was present. Deletion is
// O(1) via swap-with-last.
func (r *Relation) Delete(t Tuple) bool {
	if len(t) != len(r.attrs) {
		return false
	}
	slot, i := r.findSlot(t.hash64(), t)
	if i < 0 {
		return false
	}
	// The slot goes first: the backward shift reads the hashes of rows
	// that are about to move.
	vacate(&r.slots, &r.hashes, slot)
	r.noteDeleted(i)
	last := int32(r.rows.len() - 1)
	if i != last {
		lh := r.hashes.at(int(last))
		r.slots.set(int(r.slotOf(lh, last+1)), i+1)
		r.rows.set(int(i), r.rows.at(int(last)))
		r.hashes.set(int(i), lh)
	}
	r.rows.truncate(int(last))
	r.hashes.truncate(int(last))
	return true
}

// All returns an iterator over every tuple, in storage order. The yielded
// tuples are the relation's own rows: the caller must not retain or
// modify them, and must not mutate the relation mid-iteration. This is
// the row-major access path; Batches is the column-major one.
func (r *Relation) All() iter.Seq[Tuple] {
	return func(yield func(Tuple) bool) {
		for _, pg := range r.rows.eachPage() {
			for _, t := range pg {
				if !yield(t) {
					return
				}
			}
		}
	}
}

// SortedTuples returns all tuples sorted by the total value order, column
// by column — a deterministic order for printing and golden tests.
func (r *Relation) SortedTuples() []Tuple {
	out := r.SortedRows()
	for i, t := range out {
		out[i] = t.Clone()
	}
	return out
}

// SortedRows is SortedTuples without the per-row copy: the slice is
// fresh but its tuples are the relation's own rows, so the caller may
// reorder the slice and must not modify a tuple. Encoders that only
// read the rows use it.
func (r *Relation) SortedRows() []Tuple {
	out := r.rows.appendTo(make([]Tuple, 0, r.rows.len()))
	slices.SortFunc(out, compareTuples)
	return out
}

// compareTuples is the three-way form of the total tuple order: column by
// column under orderValues, a proper prefix before the longer tuple.
func compareTuples(a, b Tuple) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := orderValues(&a[i], &b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// Get returns the value of the named attribute in tuple t (owned by r).
// It panics on unknown attributes.
func (r *Relation) Get(t Tuple, attr string) Value {
	i, ok := r.pos[attr]
	if !ok {
		panic(fmt.Sprintf("relation: unknown attribute %q", attr))
	}
	return t[i]
}

// Clone returns an independent copy of the relation: a mutation of either
// side is invisible to the other. It copies page tables, not pages — the
// copy shares every storage page of the original (rows, hashes, slots and
// the arrays of every cached index and key-hash vector), and whichever
// side writes a page first copies that page — so its cost is proportional
// to rows/pageLen and a later mutation's to the pages it touches. The
// immutable tuple backing arrays and page slots are shared as well.
// Clone may run beside readers of r and beside other Clones of r.
func (r *Relation) Clone() *Relation {
	c := &Relation{attrs: r.attrs, pos: r.pos}
	r.shareStorage(c)
	// Carry cached indexes over, rebound to the clone: the warehouse
	// applies refresh deltas to clones (copy-on-write), and cloning must
	// not cool the indexes that insert-path maintenance keeps warm across
	// updates.
	r.mu.Lock()
	if len(r.indexes) > 0 {
		c.indexes = make(map[string]*Index, len(r.indexes))
		for k, ix := range r.indexes {
			c.indexes[k] = ix.cloneFor(c)
		}
	}
	if len(r.keyVecs) > 0 {
		c.keyVecs = make(map[string]*keyVec, len(r.keyVecs))
		for k, kv := range r.keyVecs {
			ckv := &keyVec{pos: kv.pos}
			kv.hashes.shareTo(&ckv.hashes)
			c.keyVecs[k] = ckv
		}
	}
	r.mu.Unlock()
	return c
}

// shareStorage gives c, which must hold no rows, r's rows, hashes and
// membership table as shared pages, and the slots of the row pages.
func (r *Relation) shareStorage(c *Relation) {
	r.ensureTable() // share a valid table rather than rebuilding in both copies
	r.rows.shareTo(&c.rows)
	r.hashes.shareTo(&c.hashes)
	r.slots.shareTo(&c.slots)
	r.mu.Lock()
	r.shareSlots(c)
	r.mu.Unlock()
}

// CopiedBytes returns the bytes of storage pages — rows, hashes,
// membership table and the arrays of every cached index and key-hash
// vector — that mutations of r have copied because a clone shared them,
// or re-allocated because a hash table grew, since r was created or
// cloned. After a refresh applied a delta to a fresh clone, this is what
// the copy-on-write apply cost: a few pages per changed tuple,
// independent of r's size unless a table grew.
func (r *Relation) CopiedBytes() int64 {
	n := r.rows.freshBytes() + r.hashes.freshBytes() + r.slots.freshBytes()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ix := range r.indexes {
		n += ix.slots.freshBytes() + ix.next.freshBytes() + ix.keyHash.freshBytes() + ix.keyVals.freshBytes()
	}
	for _, kv := range r.keyVecs {
		n += kv.hashes.freshBytes()
	}
	return n
}

// Equal reports whether r and o have the same attribute set and the same
// set of tuples (column order is irrelevant).
func (r *Relation) Equal(o *Relation) bool {
	if r == nil || o == nil {
		return r == o
	}
	if len(r.attrs) != len(o.attrs) || r.rows.len() != o.rows.len() {
		return false
	}
	if !r.AttrSet().Equal(o.AttrSet()) {
		return false
	}
	return o.allIn(r)
}

// allIn reports whether every tuple of r occurs in o, which must have the
// same attribute set.
func (r *Relation) allIn(o *Relation) bool {
	perm := alignment(r, o)
	for pi := range r.rows.numPages() {
		hashes := r.hashes.page(pi)
		for k, t := range r.rows.page(pi) {
			if o.findAligned(hashes[k], t, perm) < 0 {
				return false
			}
		}
	}
	return true
}

// SubsetOf reports whether every tuple of r occurs in o (same attribute
// set required; otherwise false).
func (r *Relation) SubsetOf(o *Relation) bool {
	if !r.AttrSet().Equal(o.AttrSet()) {
		return false
	}
	return r.allIn(o)
}

// Fingerprint returns an order-independent canonical encoding of the
// relation's content (attribute set + tuple set). Two relations are Equal
// iff their fingerprints agree, which gives states a cheap identity for
// the injectivity experiments (Proposition 2.1).
func (r *Relation) Fingerprint() string {
	var b strings.Builder
	attrs := append([]string(nil), r.attrs...)
	sort.Strings(attrs)
	b.WriteString(strings.Join(attrs, ","))
	b.WriteByte(';')
	perm := make([]int, len(attrs))
	for i, a := range attrs {
		perm[i] = r.pos[a]
	}
	keys := make([]string, 0, r.rows.len())
	for t := range r.All() {
		st := make(Tuple, len(perm))
		for i, p := range perm {
			st[i] = t[p]
		}
		keys = append(keys, st.key())
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
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
// sets; it panics otherwise (operator-level code validates first).
func alignment(src, dst *Relation) []int {
	perm := make([]int, len(dst.attrs))
	for i, a := range dst.attrs {
		p, ok := src.pos[a]
		if !ok {
			panic(fmt.Sprintf("relation: attribute sets differ: %q missing from source", a))
		}
		perm[i] = p
	}
	return perm
}

// identityPerm reports whether perm is the identity (columns already
// aligned), letting operators skip permutation entirely.
func identityPerm(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
}

// permute lays out tuple t (in source order) according to perm (dst order).
func permute(t Tuple, perm []int) Tuple {
	out := make(Tuple, len(perm))
	for i, p := range perm {
		out[i] = t[p]
	}
	return out
}
