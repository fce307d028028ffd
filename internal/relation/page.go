package relation

import (
	"slices"
	"sync/atomic"
)

// This file is the one stored form of a relation's rows: pages of up to
// pageLen rows, each holding one typed vector per attribute — int64,
// float64 or bool values, string codes into a dictionary of the page's
// own, or the Values themselves (ColAny) where the page's column mixes
// kinds — with a null bitmap per column. A tuple is not stored anywhere;
// it is built on demand from (page, row). The pages are shared between a
// relation and its clones under the ownership rule of paged.go: a write
// to a shared page copies its vectors first (rowPage.clone).

// ColKind is the physical type of a column vector.
type ColKind uint8

// The physical column layouts, chosen per page: ColAny is the row-value
// fallback for a page whose column mixes kinds (beyond NULL) or holds only
// NULLs. A typed layout is numbered like the value kind it holds, and
// ColAny like KindNull: ColKind(k) is kind k's layout.
const (
	ColAny    = ColKind(KindNull)
	ColBool   = ColKind(KindBool)
	ColInt    = ColKind(KindInt)
	ColFloat  = ColKind(KindFloat)
	ColString = ColKind(KindString)
)

// String names the column kind for diagnostics, as Kind names its kind.
func (k ColKind) String() string { return Kind(k).String() }

// nullBits marks the NULL rows of one column of one page: bit i, row i.
type nullBits [pageLen / 64]uint64

func (b *nullBits) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b *nullBits) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b *nullBits) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// Dict is the string dictionary of one column of one row page: code i
// decodes to Value(i). It holds at most pageLen strings, some of which no
// row may use any more (a delete leaves its string behind). Codes of
// different dictionaries are unrelated. The page's writer finds codes
// through index, which it builds when it first looks one up: a copy of the
// page starts without one.
type Dict struct {
	vals  []string
	index map[string]int32
}

// Len returns the number of strings.
func (d *Dict) Len() int { return len(d.vals) }

// Value decodes a code.
func (d *Dict) Value(c int32) string { return d.vals[c] }

// code returns the code of s and whether the dictionary holds it. Only the
// page's writer asks. A dictionary of a few strings is searched, not
// indexed: the page of a delta or a probe holds one or two rows.
func (d *Dict) code(s string) (int32, bool) {
	if d.index == nil && len(d.vals) <= smallDict {
		for c, v := range d.vals {
			if v == s {
				return int32(c), true
			}
		}
		return 0, false
	}
	if d.index == nil {
		d.index = make(map[string]int32, len(d.vals))
		for c, v := range d.vals {
			d.index[v] = int32(c)
		}
	}
	c, ok := d.index[s]
	return c, ok
}

// smallDict is the most strings a dictionary searches without an index.
const smallDict = 8

// intern returns the code of s, adding s if the dictionary lacks it.
func (d *Dict) intern(s string) int32 {
	if c, ok := d.code(s); ok {
		return c
	}
	return d.add(s)
}

// add appends s, which the dictionary lacks, and returns its code.
func (d *Dict) add(s string) int32 {
	c := int32(len(d.vals))
	d.vals = append(d.vals, s)
	if d.index != nil {
		d.index[s] = c
	}
	return c
}

// column is one attribute's vector over one page. Exactly one payload
// slice is populated, selected by kind: a ColAny column whose any is nil
// holds nothing but NULLs, and takes the typed layout of the first value
// that is not. nulls (nil until a row is NULL) marks rows whose logical
// value is NULL regardless of the payload slot, which holds the zero value
// there (in a string column, a code of its dictionary). On a page a
// relation may write, the payload is exactly as long as the page has rows;
// a shared page may hold more, past what the relations that share it count
// as theirs.
type column struct {
	kind   ColKind
	nulls  *nullBits
	bools  []bool
	ints   []int64
	floats []float64
	codes  []int32 // dictionary codes, paired with dict
	dict   *Dict
	any    []Value // fallback layout: the values verbatim
}

func (c *column) isNull(i int) bool { return c.nulls != nil && c.nulls.get(i) }

// value materializes row i as a Value.
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
		return String_(c.dict.vals[c.codes[i]])
	default:
		return c.any[i]
	}
}

// equals reports whether row i holds a value Equal to v, without boxing
// where the kinds agree.
func (c *column) equals(i int, v *Value) bool {
	if c.isNull(i) {
		return v.kind == KindNull
	}
	switch {
	case c.kind == ColInt && v.kind == KindInt:
		return c.ints[i] == v.i
	case c.kind == ColString && v.kind == KindString:
		return c.dict.vals[c.codes[i]] == v.s
	}
	return c.value(i).Equal(*v)
}

// put stores v at position k of s, which holds k or more elements, and
// returns the slice: at k == len(s) it appends.
func put[T any](s []T, k int, v T) []T {
	if k < len(s) {
		s[k] = v
		return s
	}
	return append(grow(s, 1), v)
}

// grow returns s with room for n more elements, the capacity doubling up
// to one page.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	g := make([]T, len(s), min(pageLen, max(len(s)+n, 2*cap(s), 8)))
	copy(g, s)
	return g
}

// set stores v as row k of the column of a page holding n rows (k == n
// appends), first promoting the layout if it cannot hold v: a column of
// NULLs takes v's typed layout, a typed column of another kind becomes
// ColAny. The layout of a page never narrows again.
func (c *column) set(k, n int, v Value) {
	if v.kind == KindNull {
		c.setNull(k)
		return
	}
	if c.nulls != nil {
		c.nulls.clear(k)
	}
	if c.kind != ColKind(v.kind) && (c.kind != ColAny || c.any == nil) || c.full(v) {
		c.promote(v.kind, n)
	}
	switch c.kind {
	case ColBool:
		c.bools = put(c.bools, k, v.b)
	case ColInt:
		c.ints = put(c.ints, k, v.i)
	case ColFloat:
		c.floats = put(c.floats, k, v.f)
	case ColString:
		c.codes = put(c.codes, k, c.dict.intern(v.s))
	default:
		c.any = put(c.any, k, v)
	}
}

// setNull marks row k NULL, keeping its payload slot at the zero value.
func (c *column) setNull(k int) {
	if c.nulls == nil {
		c.nulls = new(nullBits)
	}
	c.nulls.set(k)
	c.bools, c.ints, c.floats = putZero(c.bools, k), putZero(c.ints, k), putZero(c.floats, k)
	c.codes, c.any = putZero(c.codes, k), putZero(c.any, k)
}

// putZero is put of the zero value into the payload the column has; the
// others stay nil.
func putZero[T any](s []T, k int) []T {
	var zero T
	if s == nil {
		return nil
	}
	return put(s, k, zero)
}

// promote changes the layout of a column of n rows so that it holds
// values of kind k.
func (c *column) promote(k Kind, n int) {
	if c.kind == ColAny { // nothing but NULLs so far
		switch c.kind = ColKind(k); c.kind {
		case ColBool:
			c.bools = make([]bool, n)
		case ColInt:
			c.ints = make([]int64, n)
		case ColFloat:
			c.floats = make([]float64, n)
		case ColString:
			c.codes, c.dict = make([]int32, n), new(Dict)
		}
		return
	}
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = c.value(i)
	}
	*c = column{kind: ColAny, nulls: c.nulls, any: vals}
}

// full reports whether v is a string the column's dictionary has no room
// for: one per row of the page, and deletes leave theirs behind. Such a
// column takes ColAny (promote, from a typed layout).
func (c *column) full(v Value) bool {
	if c.kind != ColString || len(c.dict.vals) < pageLen {
		return false
	}
	_, held := c.dict.code(v.s)
	return !held
}

// appendRun appends the rows refs (global row numbers, all on the page src
// belongs to) of column src to the column of a page holding k rows, which
// will hold end once the caller's appends are done: in a typed loop where
// the column takes src's layout as it is, cell by cell otherwise. A string
// is looked up in the column's dictionary once per source code the run
// meets, not once per cell: remap is the caller's scratch for the
// translation table.
func (c *column) appendRun(k, end int, src *column, refs []int32, remap *[]int32) {
	typed := src.kind != ColAny && (c.kind == src.kind || c.kind == ColAny && c.any == nil)
	if !typed || (c.kind == ColString && len(c.dict.vals)+len(refs) > pageLen) {
		for i, r := range refs {
			c.set(k+i, k+i, src.value(int(r&pageMask)))
		}
		return
	}
	if c.kind == ColAny {
		c.promote(Kind(src.kind), k)
	}
	c.appendNulls(k, src, refs)
	switch c.kind { // a NULL row's payload slot holds the zero value in src as here
	case ColBool:
		c.bools = gather(c.bools, src.bools, refs, end)
	case ColInt:
		c.ints = gather(c.ints, src.ints, refs, end)
	case ColFloat:
		c.floats = gather(c.floats, src.floats, refs, end)
	case ColString: // a NULL row's code, too, names a string of src's: no dictionary is left empty
		c.codes = grow(c.codes, end-len(c.codes))
		if len(refs) <= smallDict { // a few cells: no translation table
			for _, r := range refs {
				c.codes = append(c.codes, c.dict.intern(src.dict.vals[src.codes[r&pageMask]]))
			}
			return
		}
		c.appendCodes(src, refs, remap)
	}
}

// appendNulls marks the rows refs of src that are NULL in the rows from k
// on of the column.
func (c *column) appendNulls(k int, src *column, refs []int32) {
	if src.nulls != nil || c.nulls != nil {
		for i, r := range refs {
			if src.isNull(int(r & pageMask)) {
				if c.nulls == nil {
					c.nulls = new(nullBits)
				}
				c.nulls.set(k + i)
			} else if c.nulls != nil {
				c.nulls.clear(k + i)
			}
		}
	}
}

// appendCodes appends the codes of the strings of src's rows refs, looking
// each source code up once: remap is the caller's scratch for the
// translation table.
func (c *column) appendCodes(src *column, refs []int32, remap *[]int32) {
	if n := len(src.dict.vals); cap(*remap) < n {
		*remap = make([]int32, n)
	}
	to := (*remap)[:len(src.dict.vals)] // to[code]: 1 + the column's code for src's code, once met
	clear(to)
	// src's strings are distinct: into an empty dictionary each one the
	// run meets is new.
	fresh := len(c.dict.vals) == 0
	for _, r := range refs {
		code := src.codes[r&pageMask]
		if to[code] == 0 {
			if s := src.dict.vals[code]; fresh {
				to[code] = c.dict.add(s) + 1
			} else {
				to[code] = c.dict.intern(s) + 1
			}
		}
		c.codes = append(c.codes, to[code]-1)
	}
}

// gather appends the elements refs (global row numbers, of src's page) of
// src to dst, making room for end elements in all.
func gather[T any](dst, src []T, refs []int32, end int) []T {
	dst = grow(dst, end-len(dst))
	for _, r := range refs {
		dst = append(dst, src[r&pageMask])
	}
	return dst
}

// clone returns a copy of the column's first n rows whose vectors have
// room for one more on a page that has it, and the bytes it copied.
func (c *column) clone(n int, ints *[]int64) (column, int64) {
	room := min(n+1, pageLen)
	cp := column{kind: c.kind, bools: head(c.bools, n, room),
		floats: head(c.floats, n, room), codes: head(c.codes, n, room), any: head(c.any, n, room)}
	if c.ints != nil { // from the page's block of them
		cp.ints, *ints = append((*ints)[:0:room], c.ints[:n]...), (*ints)[room:]
	}
	bytes := int64(n) * cellBytes[c.kind]
	if c.any == nil && c.kind == ColAny {
		bytes = 0
	}
	if c.nulls != nil {
		nulls := *c.nulls
		cp.nulls, bytes = &nulls, bytes+int64(len(nulls)*8)
	}
	if c.dict != nil {
		cp.dict = &Dict{vals: slices.Clone(c.dict.vals)}
		bytes += 16 * int64(len(c.dict.vals))
	}
	return cp, bytes
}

// cellBytes is the size of one row of each layout's payload.
var cellBytes = [...]int64{ColAny: 40, ColBool: 1, ColInt: 8, ColFloat: 8, ColString: 4}

// head returns a copy of the first n elements of s, nil for nil, with
// capacity room.
func head[T any](s []T, n, room int) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, room), s[:n]...)
}

// truncate cuts the column of a private page to its first n rows.
func (c *column) truncate(n int) {
	if c.any != nil {
		c.any[n] = Value{} // release its string
	}
	c.bools, c.ints, c.floats = window(c.bools, n), window(c.ints, n), window(c.floats, n)
	c.codes, c.any = window(c.codes, n), window(c.any, n)
}

// rowPage is one page of rows: a column per attribute. How many rows it
// holds is the relation's business (rowPages.rowsOn): a page shared with a
// clone that has since dropped rows still holds them for the clone.
type rowPage []column

// read fills t with row k.
func (pg rowPage) read(k int, t Tuple) Tuple {
	for c := range t {
		t[c] = pg[c].value(k)
	}
	return t
}

// readCols fills the positions cols of t with those columns of row k.
func (pg rowPage) readCols(k int, t Tuple, cols []int) Tuple {
	for _, c := range cols {
		t[c] = pg[c].value(k)
	}
	return t
}

// hashCols hashes the values of row k at the columns pos: the hash of the
// row's projection onto them, whatever their order.
func (pg rowPage) hashCols(k int, pos []int) uint64 {
	var h uint64
	for _, p := range pos {
		h += pg[p].value(k).hash64()
	}
	return h
}

// clone returns a private copy of the page's first n rows, with room for
// one more on a page that has it, and its size.
func (pg rowPage) clone(n int) (rowPage, int64) {
	cp, bytes, nInts := make(rowPage, len(pg)), int64(0), 0
	for c := range pg {
		if pg[c].ints != nil {
			nInts++
		}
	}
	ints := make([]int64, nInts*min(n+1, pageLen))
	for c := range pg {
		var b int64
		cp[c], b = pg[c].clone(n, &ints)
		bytes += b
	}
	return cp, bytes
}

// source is where an operator's output rows take cells from: output row i
// takes row refs[i] of rows, at the columns cols in order.
type source struct {
	rows  *rowPages
	cols  []int
	refs  []int32
	remap []int32 // appendRun's scratch
}

// identity backs the column lists allCols hands out for up to 64 columns.
var identity = func() (cols [64]int) {
	for i := range cols {
		cols[i] = i
	}
	return cols
}()

// allCols returns the identity column list of arity n. Its callers never
// write it, so the lists of up to 64 columns share one array.
func allCols(n int) []int {
	if n <= len(identity) {
		return identity[:n:n]
	}
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// fill appends the cells of the source's rows from to the columns c, c+1,
// … of a page holding k rows, a column and, within it, a run of rows on
// one source page at a time. It returns the column after the last.
func (s *source) fill(dst rowPage, k int, from []int32, c int) int {
	for _, j := range s.cols {
		at, refs := k, from
		for len(refs) > 0 {
			pi := refs[0] >> pageBits
			n := 1
			for n < len(refs) && refs[n]>>pageBits == pi {
				n++
			}
			dst[c].appendRun(at, k+len(from), &s.rows.pages[pi][j], refs[:n], &s.remap)
			at, refs = at+n, refs[n:]
		}
		c++
	}
	return c
}

// emitter appends rows of other relations, absent from out and distinct,
// to out: it collects per row the input rows it takes cells from and its
// hash, and appends them a page's worth at a time, column by column. The
// hashes go to out's membership table, which enters them in its slots when
// it is next probed (table.cover).
type emitter struct {
	out    *Relation
	a, b   source // b.rows is nil for a row taken from one input
	hashes []uint64
}

// newEmitter returns an emitter of rows into out whose cells come from a
// (and b, where b.rows is set).
func newEmitter(out *Relation, a, b source) *emitter { return &emitter{out: out, a: a, b: b} }

// emit adds the row made of the cells of row ra of a (and of row rb of b)
// with hash h.
func (e *emitter) emit(h uint64, ra, rb int32) {
	e.hashes = append(e.hashes, h)
	e.a.refs = append(e.a.refs, ra)
	if e.b.rows != nil {
		e.b.refs = append(e.b.refs, rb)
	}
	if len(e.hashes) == pageLen {
		e.flush()
	}
}

// flush appends the rows collected so far to out.
func (e *emitter) flush() {
	out, n := e.out, len(e.hashes)
	for off := 0; off < n; {
		pg, k := out.rows.tail(len(out.attrs))
		m := min(n-off, pageLen-k)
		if k == 0 {
			e.presize(pg, off, m)
		}
		if c := e.a.fill(pg, k, e.a.refs[off:off+m], 0); e.b.rows != nil {
			e.b.fill(pg, k, e.b.refs[off:off+m], c)
		}
		for _, h := range e.hashes[off : off+m] {
			out.set.hashes.append(h)
		}
		out.rows.n += m
		off += m
	}
	e.hashes, e.a.refs, e.b.refs = e.hashes[:0], e.a.refs[:0], e.b.refs[:0]
}

// presize gives the columns of the fresh page pg, about to take m rows
// from the collected row off on, the layouts of the source page row off
// comes from, with vectors carved from one block per kind: a page of a
// delta allocates a vector per kind, not per column, and its string
// columns — codes, dictionary and its few strings — one block together.
func (e *emitter) presize(pg rowPage, off, m int) {
	var n [ColString + 1]int
	e.eachSourceCol(pg, off, func(_ *column, src *column) { n[src.kind]++ })
	room := max(m, min(smallDict, pageLen)) // a few rows more fit without a copy
	ints, floats, bools := make([]int64, n[ColInt]*room), make([]float64, n[ColFloat]*room), make([]bool, n[ColBool]*room)
	var small []smallStrings
	var codes []int32
	var dicts []Dict
	if room == smallDict {
		small = make([]smallStrings, n[ColString])
	} else {
		codes, dicts = make([]int32, n[ColString]*room), make([]Dict, n[ColString])
	}
	e.eachSourceCol(pg, off, func(c *column, src *column) {
		switch c.kind = src.kind; c.kind {
		case ColBool:
			c.bools, bools = bools[:0:room], bools[room:]
		case ColInt:
			c.ints, ints = ints[:0:room], ints[room:]
		case ColFloat:
			c.floats, floats = floats[:0:room], floats[room:]
		case ColString:
			if small != nil {
				b := &small[0]
				c.codes, c.dict, b.dict.vals, small = b.codes[:0], &b.dict, b.vals[:0], small[1:]
			} else {
				c.codes, c.dict, codes, dicts = codes[:0:room], &dicts[0], codes[room:], dicts[1:]
			}
		}
	})
}

// smallStrings is a string column of a page of a few rows, in one block.
type smallStrings struct {
	dict  Dict
	codes [smallDict]int32
	vals  [smallDict]string
}

// eachSourceCol calls f with each column of pg and the source column the
// collected row off takes its cell from.
func (e *emitter) eachSourceCol(pg rowPage, off int, f func(c, src *column)) {
	c := 0
	for _, s := range [2]*source{&e.a, &e.b} {
		if s.rows == nil {
			break
		}
		spg := s.rows.pages[s.refs[off]>>pageBits]
		for _, j := range s.cols {
			f(&pg[c], &spg[j])
			c++
		}
	}
}

// done flushes what is left, counts out's rows as emitted into s and
// returns out.
func (e *emitter) done(s *OpStats) *Relation {
	e.flush()
	s.emitted(e.out.Len())
	return e.out
}

// rowPages is a relation's row storage: a table of pages under the cow
// rule, page pi holding rows [pi·pageLen, min(n, (pi+1)·pageLen)).
type rowPages struct {
	cow
	pages []rowPage
	n     int
	fresh int64 // bytes of pages copied on write
}

func (s *rowPages) len() int { return s.n }

func (s *rowPages) numPages() int { return len(s.pages) }

// rowsOn returns the number of rows on page pi.
func (s *rowPages) rowsOn(pi int) int { return min(pageLen, s.n-pi<<pageBits) }

// cell returns the value of column c in row i.
func (s *rowPages) cell(i, c int) Value { return s.pages[i>>pageBits][c].value(i & pageMask) }

// read fills t with row i.
func (s *rowPages) read(i int, t Tuple) Tuple { return s.pages[i>>pageBits].read(i&pageMask, t) }

// sameCols reports whether rows a and b hold Equal values at the columns
// pos.
func (s *rowPages) sameCols(a, b int, pos []int) bool {
	pa, pb := s.pages[a>>pageBits], s.pages[b>>pageBits]
	for _, p := range pos {
		if v := pa[p].value(a & pageMask); !pb[p].equals(b&pageMask, &v) {
			return false
		}
	}
	return true
}

// sameAs reports whether row i holds at the columns pos what row j of o
// holds at the columns oPos.
func (s *rowPages) sameAs(i int, pos []int, o *rowPages, j int, oPos []int) bool {
	pg := s.pages[i>>pageBits]
	for x, p := range pos {
		if v := o.cell(j, oPos[x]); !pg[p].equals(i&pageMask, &v) {
			return false
		}
	}
	return true
}

// matches reports whether row i holds t[tPos[j]] at column pos[j] for
// every j.
func (s *rowPages) matches(i int, pos []int, t Tuple, tPos []int) bool {
	pg, k := s.pages[i>>pageBits], i&pageMask
	for j, p := range pos {
		if !pg[p].equals(k, &t[tPos[j]]) {
			return false
		}
	}
	return true
}

// at returns a fresh copy of row i.
func (s *rowPages) at(i int) Tuple { return s.read(i, make(Tuple, len(s.pages[0]))) }

// own makes page pi writable, copying it if it is shared.
func (s *rowPages) own(pi int) rowPage {
	if !s.private() && s.claim(pi, len(s.pages)) {
		cp, bytes := s.pages[pi].clone(s.rowsOn(pi))
		s.pages[pi] = cp
		s.fresh += bytes
	}
	return s.pages[pi]
}

// tail returns the writable page the next row goes to and its position
// there, appending a page when the last one is full; the caller counts the
// rows it stores there into n.
func (s *rowPages) tail(arity int) (rowPage, int) {
	pi, k := s.n>>pageBits, s.n&pageMask
	if pi < len(s.pages) {
		return s.own(pi), k
	}
	s.grow(len(s.pages))
	s.pages = append(s.pages, make(rowPage, arity))
	return s.pages[pi], 0
}

// move stores row from as row to, both present: the swap of a
// swap-with-last delete.
func (s *rowPages) move(from, to int) {
	src := s.pages[from>>pageBits]
	dst, k := s.own(to>>pageBits), to&pageMask
	n := s.rowsOn(to >> pageBits)
	for c := range dst {
		dst[c].set(k, n, src[c].value(from&pageMask))
	}
}

// dropLast removes the last row. A shared last page is left as it is:
// the rows it holds past the new count are not this relation's any more.
func (s *rowPages) dropLast() {
	pi := (s.n - 1) >> pageBits
	s.settle(len(s.pages)) // a clone taken since the last write shares every page
	s.n--
	if s.n&pageMask == 0 {
		s.shrink(len(s.pages), pi)
		s.pages[pi] = nil
		s.pages = s.pages[:pi]
		return
	}
	if !s.shared(pi) {
		for c := range s.pages[pi] {
			s.pages[pi][c].truncate(s.rowsOn(pi))
		}
	}
}

// snapshot returns the page table and the row count as they are, and
// lends the pages: the next write to any of them copies it first. The
// flag is stored only when clear, so readers of a published relation
// write no shared cache line.
func (s *rowPages) snapshot() ([]rowPage, int) {
	if !s.lent.Load() {
		s.lent.Store(true)
	}
	return slices.Clone(s.pages), s.n
}

// shareTo makes c, which must be empty, a copy of s that shares all of its
// pages. Safe beside readers of s and beside concurrent shareTo calls.
func (s *rowPages) shareTo(c *rowPages) {
	if s.n == 0 {
		return
	}
	s.lend(&c.cow)
	c.pages = append([]rowPage(nil), s.pages...)
	c.n = s.n
}

// pageSlot holds what has been derived from one row page: its encoded
// section (codec.go). The slot belongs to the page, not to a relation:
// every relation that shares the page — clones and renamings, made before
// or after the section was encoded — holds the same slot, so a section
// encoded through any of them serves all of them. It is set once,
// atomically, by whoever encodes it first. A relation that writes the
// page parts with the slot (dropSlot, dropSlotsFrom) and takes a fresh one
// the next time the section of the new page is asked for.
type pageSlot struct {
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
// each page that has none — or a section encoded through r after this
// call would be lost to c and everything cloned from it. Caller holds
// r.mu.
func (r *Relation) shareSlots(c *Relation) {
	t := r.slotTable()
	for pi, sl := range t {
		if sl == nil {
			t[pi] = new(pageSlot)
		}
	}
	c.derived = append([]*pageSlot(nil), t...)
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
