package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// modelRel is a relation over (a, b, c, e) under test beside the map that
// says what it must hold, keyed by the a column (the tests keep a unique).
// No index covers e, which carries what the column pages must get right:
// NULLs, and kinds that differ from row to row.
type modelRel struct {
	rel   *Relation
	model map[int64]Tuple
}

// keyOf is the part of a tuple an index over pos covers, as a map key.
type keyOf struct {
	a, c int64
	b    string
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

func groupKey(tu Tuple, pos []int) keyOf {
	var k keyOf
	for _, p := range pos {
		switch p {
		case 0:
			k.a = tu[0].AsInt()
		case 1:
			k.b = tu[1].AsString()
		case 2:
			k.c = 1 + tu[2].AsInt()
		}
	}
	return k
}

func (m *modelRel) clone() *modelRel {
	c := &modelRel{rel: m.rel.Clone(), model: make(map[int64]Tuple, len(m.model))}
	for k, tu := range m.model {
		c.model[k] = tu
	}
	return c
}

// check compares every access path of the relation with the model: Len,
// All, Contains, every table — its key hashes and, where its slots are
// built, lookup, Unique, and Keys, bounded by the distinct keys — and the
// column pages, read batch by batch.
func (m *modelRel) check(t *testing.T, what string) {
	t.Helper()
	r := m.rel
	if r.Len() != len(m.model) {
		t.Fatalf("%s: Len = %d, model has %d", what, r.Len(), len(m.model))
	}
	seen := 0
	for tu := range r.All() {
		if mt, ok := m.model[tu[0].AsInt()]; !ok || !tuplesEqual(mt, tu) {
			t.Fatalf("%s: All yields %v, which the model does not hold", what, tu)
		}
		seen++
	}
	if seen != len(m.model) {
		t.Fatalf("%s: All yields %d tuples, model has %d", what, seen, len(m.model))
	}
	for _, tu := range m.model {
		if !r.Contains(tu) {
			t.Fatalf("%s: Contains(%v) = false for a model tuple", what, tu)
		}
	}
	if ghost := (Tuple{Int(-1), String_("ghost"), Int(-1), Null()}); r.Contains(ghost) {
		t.Fatalf("%s: Contains(%v) = true", what, ghost)
	}
	for key, ix := range tables(r) {
		if key != "" && r.tableFor(ix.attrs, key) != ix || ix.hashes.len() != r.Len() {
			t.Fatalf("%s table %q: %d hashes for %d rows", what, key, ix.hashes.len(), r.Len())
		}
		i := 0
		for tu := range r.All() {
			var key Tuple // the row's projection onto the table's columns
			for _, p := range ix.pos {
				key = append(key, tu[p])
			}
			if ix.hashes.at(i) != key.hash64() {
				t.Fatalf("%s table %q: stale hash at row %d", what, key, i)
			}
			i++
		}
		if ix.slots.len() == 0 {
			continue
		}
		groups := make(map[keyOf]int, len(m.model))
		for _, tu := range m.model {
			groups[groupKey(tu, ix.pos)]++
		}
		unique := true
		for _, n := range groups {
			unique = unique && n == 1
		}
		if ix.Unique() != unique || ix.Keys() > len(groups) {
			t.Fatalf("%s index %q: Unique = %v, Keys = %d; model says unique = %v with %d keys", what, key, ix.Unique(), ix.Keys(), unique, len(groups))
		}
		probes := 0
		for _, tu := range m.model { // map order: a random sample
			vals := make([]Value, len(ix.pos))
			for i, p := range ix.pos {
				vals[i] = tu[p]
			}
			hits := lookup(ix, vals...)
			if want := groups[groupKey(tu, ix.pos)]; len(hits) != want {
				t.Fatalf("%s index %q: Lookup(%v) returns %d rows, model has %d", what, key, vals, len(hits), want)
			}
			for _, h := range hits {
				if mt, ok := m.model[h[0].AsInt()]; !ok || !tuplesEqual(mt, h) || groupKey(h, ix.pos) != groupKey(tu, ix.pos) {
					t.Fatalf("%s index %q: Lookup(%v) returns %v", what, key, vals, h)
				}
			}
			if probes++; probes == 8 {
				break
			}
		}
		if hits := lookup(ix, make([]Value, len(ix.pos))...); len(hits) != 0 {
			t.Fatalf("%s index %q: Lookup(NULLs) returns %v", what, key, hits)
		}
	}
	rows := 0
	for b := range r.Batches() {
		if b.Start() != rows || b.NumCols() != 4 || b.ColKind(0) != ColInt || b.ColKind(1) != ColString || b.Dict(1).Len() > BatchSize {
			t.Fatalf("%s: batch at row %d starts at %d, with %d columns laid out %v, %v, …", what, rows, b.Start(), b.NumCols(), b.ColKind(0), b.ColKind(1))
		}
		for i := 0; i < b.Len(); i++ {
			tu := r.rows.at(b.Start() + i)
			for c := range tu {
				if !b.Value(c, i).Equal(tu[c]) {
					t.Fatalf("%s: batch value (%d,%d) = %v, row holds %v", what, b.Start()+i, c, b.Value(c, i), tu[c])
				}
			}
			rows++
		}
	}
	if rows != len(m.model) || r.rows.numPages() != numBatches(len(m.model)) {
		t.Fatalf("%s: Batches cover %d rows in %d pages, model has %d rows", what, rows, r.rows.numPages(), len(m.model))
	}
}

// imagesOf returns the row pages of r by identity (the first column of
// each): what a column-major reader of r reads, one entry per page.
func imagesOf(r *Relation) []*column {
	out := make([]*column, len(r.rows.pages))
	for pi, pg := range r.rows.pages {
		out[pi] = &pg[0]
	}
	return out
}

// imagesChanged counts the row pages that are not the ones before holds:
// copied on write, or beyond a table that shrank.
func (m *modelRel) imagesChanged(before []*column) int {
	now, n := imagesOf(m.rel), 0
	for pi, im := range before {
		if pi >= len(now) || now[pi] != im {
			n++
		}
	}
	return n
}

// TestClonesAreIndependent is the contract of Clone over shared pages: in a
// random tree of clones under interleaved inserts, bulk inserts, deletes,
// further clones and lazily built tables, with and without slots, every live
// relation equals its own model after every step — the original after its
// clone was mutated and the clone after the original was. Start sizes sit
// below, on and above page boundaries and below a growth of the membership
// table, so steps cross them both ways. The row pages are shared until
// written: a clone holds the very pages of the original, an insert copies
// at most one and a delete at most two, and every other page stays the
// one it was.
func TestClonesAreIndependent(t *testing.T) {
	attrSets := [][]string{{"a"}, {"b"}, {"a", "c"}, {"a", "b", "c"}}
	dim := New("b", "d") // larger than any relation under test: joins build on it and probe with theirs
	for i := 0; i < 8*pageLen; i++ {
		dim.InsertValues(String_(fmt.Sprint("s", i)), Int(int64(i)))
	}
	unbuilt := 0
	for seed, start := range []int{0, 3, pageLen - 2, pageLen, 1364, 2*pageLen + 1} {
		rng := rand.New(rand.NewSource(int64(seed)))
		domain := 40 + rng.Intn(40)
		next := 0
		row := func() Tuple {
			next++
			e := Int(int64(next % 7))
			switch {
			case next%11 == 0:
				e = Null()
			case next/pageLen == 1 && next%3 == 0: // the second page starts out mixed-kind, between typed ones
				e = []Value{String_("mixed"), Float(0.5)}[next%2]
			}
			return Tuple{Int(int64(next)), String_(fmt.Sprint("s", rng.Intn(domain))), Int(int64(rng.Intn(domain))), e}
		}
		root := &modelRel{rel: New("a", "b", "c", "e"), model: map[int64]Tuple{}}
		for i := 0; i < start; i++ {
			tu := row()
			root.rel.Insert(tu)
			root.model[tu[0].AsInt()] = tu
		}
		root.check(t, fmt.Sprintf("seed %d start", seed))
		live := []*modelRel{root}
		for step := 0; step < 100; step++ {
			m := live[rng.Intn(len(live))]
			images := imagesOf(m.rel) // one per page: check ran
			switch op := rng.Intn(10); {
			case op < 3:
				tu := row()
				if rng.Intn(4) == 0 && len(m.model) > 0 { // a duplicate: must be a no-op
					for _, tu = range m.model {
						break
					}
				}
				_, had := m.model[tu[0].AsInt()]
				if m.rel.Insert(tu) == had {
					t.Fatalf("seed %d step %d: Insert(%v) = %v, model had it: %v", seed, step, tu, !had, had)
				}
				m.model[tu[0].AsInt()] = tu
				if n := m.imagesChanged(images); n > 1 {
					t.Fatalf("seed %d step %d: one insert dropped %d page images", seed, step, n)
				}
			case op < 4:
				batch := New("c", "e", "a", "b") // other column order: InsertAll aligns by name
				for i := rng.Intn(pageLen / 3); i >= 0; i-- {
					tu := row()
					batch.InsertValues(tu[2], tu[3], tu[0], tu[1])
					m.model[tu[0].AsInt()] = tu
				}
				if added := m.rel.InsertAll(batch); added != batch.Len() {
					t.Fatalf("seed %d step %d: InsertAll added %d of %d new tuples", seed, step, added, batch.Len())
				}
			case op < 7:
				deletes := 0
				for n := 1 + rng.Intn(3); n > 0 && len(m.model) > 0; n-- {
					victim := m.rel.rows.at(rng.Intn(m.rel.Len())).Clone()
					if !m.rel.Delete(victim) || m.rel.Delete(victim) {
						t.Fatalf("seed %d step %d: Delete(%v) of a present row must succeed exactly once", seed, step, victim)
					}
					delete(m.model, victim[0].AsInt())
					deletes++
				}
				if n := m.imagesChanged(images); n > 2*deletes {
					t.Fatalf("seed %d step %d: %d deletes dropped %d page images", seed, step, deletes, n)
				}
			case op < 8:
				if len(live) == 5 {
					live = append(live[:0], live[1+rng.Intn(2):]...) // forget the oldest: their pages stay shared
				}
				c := m.clone()
				if n := c.imagesChanged(images); n != 0 || len(c.rel.derived) != len(images) {
					t.Fatalf("seed %d step %d: a clone holds %d page slots, %d of their images not the original's %d", seed, step, len(c.rel.derived), n, len(images))
				}
				live = append(live, c)
			case op < 9:
				as := attrSets[rng.Intn(len(attrSets))]
				if rng.Intn(3) == 0 {
					m.rel.tableFor([]string{"c"}, "c") // key hashes only: no slots
				} else {
					m.rel.Index(as...)
				}
			default:
				if got := NaturalJoin(m.rel, dim).Len(); got != m.rel.Len() { // caches a table over b without slots
					t.Fatalf("seed %d step %d: join with the dimension has %d rows, want %d", seed, step, got, m.rel.Len())
				}
			}
			for i, l := range live {
				l.check(t, fmt.Sprintf("seed %d step %d relation %d/%d", seed, step, i, len(live)))
			}
			for _, ix := range m.rel.indexes {
				if ix.slots.len() == 0 {
					unbuilt++
				}
			}
		}
	}
	if unbuilt == 0 {
		t.Fatal("the steps carried no table without slots through mutations")
	}
}

// TestDerivedFormsFollowThePage: what is derived from an immutable page
// belongs to the page. A section first encoded through a relation after it
// was cloned — the checkpointer encoding version N while the writer is on
// N+k — is the very pointer its clones, their clones and its renamings
// return, in either direction, and they all read the very same column
// pages; a write to a page gives the writer a private copy of the page and
// a fresh, empty slot for it, and leaves every other page and slot, and
// every other relation's, as it was.
func TestDerivedFormsFollowThePage(t *testing.T) {
	r := New("k", "v")
	for i := range 3*pageLen + 100 {
		r.InsertValues(Int(int64(i)), String_(fmt.Sprint("v", i%7)))
	}
	c := r.Clone() // before anything was derived
	cc := c.Clone()
	ren, err := Rename(c, map[string]string{"v": "w"})
	if err != nil {
		t.Fatal(err)
	}
	sec2, encoded := r.PageSection(2)
	if !encoded {
		t.Fatal("the first PageSection of a page reports a cached section")
	}
	for _, o := range []*Relation{c, cc, ren} {
		for pi := range r.NumPages() {
			if o.slot(pi) != r.slot(pi) || &o.rows.pages[pi][0] != &r.rows.pages[pi][0] {
				t.Fatalf("page %d: a relation sharing the page holds another slot or another page", pi)
			}
		}
		if got, enc := o.PageSection(2); got != sec2 || enc {
			t.Fatalf("a clone re-encoded a shared page: section encoded = %v", enc)
		}
	}
	sec0, _ := cc.PageSection(0) // and upwards: derived through the clone's clone
	if got, enc := r.PageSection(0); got != sec0 || enc {
		t.Fatal("a section derived through a clone is not the one the original returns")
	}

	slotsOf := func(o *Relation) []*pageSlot {
		var out []*pageSlot
		for pi := range o.NumPages() {
			out = append(out, o.slot(pi))
		}
		return out
	}
	before, others, pages := slotsOf(c), slotsOf(r), imagesOf(r)
	victim := c.rows.at(pageLen + 5)
	if !c.Delete(victim) { // moves the last row into page 1 — a copy — and drops it from page 3, shared as it is
		t.Fatal("delete failed")
	}
	for pi, sl := range slotsOf(c) {
		written := pi == 1 || pi == 3
		if copied := &c.rows.pages[pi][0] != pages[pi]; (sl != before[pi]) != written || copied != (pi == 1) {
			t.Errorf("after a delete on page 1: page %d's slot replaced = %v, page copied = %v", pi, sl != before[pi], copied)
		}
		if written && sl.section.Load() != nil {
			t.Errorf("page %d: the writer's fresh slot already holds a section", pi)
		}
	}
	before = slotsOf(c)
	c.InsertValues(Int(-1), String_("new")) // writes the last page only
	for pi, sl := range slotsOf(c) {
		if written := pi == 3; (sl != before[pi]) != written {
			t.Errorf("after an insert: page %d's slot replaced = %v, want %v", pi, sl != before[pi], written)
		}
	}
	for _, o := range []*Relation{r, cc, ren} {
		for pi, sl := range slotsOf(o) {
			if sl != others[pi] || &o.rows.pages[pi][0] != pages[pi] {
				t.Errorf("page %d: a write through one relation touched another's page or slot", pi)
			}
		}
	}
	// The written page's new section is its new rows, and decodes to them.
	sec1, encoded := c.PageSection(1)
	old1, _ := r.PageSection(1)
	if !encoded || bytes.Equal(sec1.Bytes, old1.Bytes) {
		t.Fatal("the section of a written page was not encoded afresh")
	}
	secs := make([]Section, c.NumPages())
	for pi := range secs {
		s, _ := c.PageSection(pi)
		secs[pi] = *s
	}
	back, err := DecodePages(c.Attrs(), uint64(c.Len()), secs)
	if err != nil || !back.Equal(c) || back.Contains(victim) {
		t.Fatalf("the sections of the written relation decode to something else (error %v)", err)
	}
	for pi := range secs {
		if got, enc := back.PageSection(pi); enc || !bytes.Equal(got.Bytes, secs[pi].Bytes) {
			t.Fatalf("page %d: a decoded relation does not keep the section it was decoded from", pi)
		}
	}
}

// batchState is what a batch reads: its rows, its column kinds and its
// string dictionaries.
type batchState struct {
	rows  []Tuple
	kinds []ColKind
	dicts [][]string
}

func stateOf(b Batch) batchState {
	var st batchState
	for i := range b.Len() {
		t := make(Tuple, b.NumCols())
		for c := range t {
			t[c] = b.Value(c, i)
		}
		st.rows = append(st.rows, t)
	}
	for c := range b.NumCols() {
		st.kinds = append(st.kinds, b.ColKind(c))
		var dict []string
		if d := b.Dict(c); d != nil {
			for code := range int32(d.Len()) {
				dict = append(dict, d.Value(code))
			}
		}
		st.dicts = append(st.dicts, dict)
	}
	return st
}

func (st batchState) equal(o batchState) bool {
	if len(st.rows) != len(o.rows) || fmt.Sprint(st.kinds, st.dicts) != fmt.Sprint(o.kinds, o.dicts) {
		return false
	}
	for i := range st.rows {
		if !tuplesEqual(st.rows[i], o.rows[i]) {
			return false
		}
	}
	return true
}

// checkFreshBatches: a fresh Batches call covers exactly the relation's
// rows as they are now.
func checkFreshBatches(t *testing.T, r *Relation, after string) {
	t.Helper()
	i := 0
	for b := range r.Batches() {
		if b.Start() != i {
			t.Fatalf("after %s: a fresh batch starts at %d, want %d", after, b.Start(), i)
		}
		for _, row := range stateOf(b).rows {
			if !tuplesEqual(row, r.rows.at(i)) {
				t.Fatalf("after %s: a fresh batch reads row %d as %v, the relation holds %v", after, i, row, r.rows.at(i))
			}
			i++
		}
	}
	if i != r.Len() {
		t.Fatalf("after %s: fresh batches cover %d rows, the relation holds %d", after, i, r.Len())
	}
}

// TestBatchHeldAcrossAWrite pins what a Batch is: the page as it was when
// Batches was called. A batch held across a write to its own page reads
// the rows, kinds and dictionary it read before; a write made while
// ranging changes none of the batches still to come, whether it empties
// the last page or grows the page table; a fresh Batches sees every write.
func TestBatchHeldAcrossAWrite(t *testing.T) {
	r := New("k", "v", "s")
	for i := range 10 {
		r.InsertValues(Int(int64(i)), Int(int64(10*i)), String_(fmt.Sprint("s", i%3)))
	}
	first := func(r *Relation) (b Batch) {
		for b = range r.Batches() {
			break
		}
		return b
	}
	for _, w := range []struct {
		name  string
		write func() bool
	}{
		{"a swap-with-last delete", func() bool { return r.Delete(Tuple{Int(3), Int(30), String_("s0")}) }},
		{"an insert that promotes v to ColAny", func() bool { return r.InsertValues(Int(100), String_("x"), String_("s1")) }},
		{"an append onto the batch's own last page", func() bool { return r.InsertValues(Int(101), Int(7), String_("s2")) }},
		{"an insert that interns a new string", func() bool { return r.InsertValues(Int(102), Int(8), String_("new")) }},
	} {
		b := first(r)
		before := stateOf(b)
		if !w.write() {
			t.Fatalf("%s failed", w.name)
		}
		if got := stateOf(b); !got.equal(before) {
			t.Fatalf("a batch held across %s reads %v, kinds %v, dictionaries %v; it read %v, %v, %v",
				w.name, got.rows, got.kinds, got.dicts, before.rows, before.kinds, before.dicts)
		}
		checkFreshBatches(t, r, w.name)
	}

	// Writes made inside the range loop, on the first batch.
	for _, w := range []struct {
		name  string
		write func(r *Relation) bool
	}{
		{"a delete that empties the last page", func(r *Relation) bool {
			return r.Delete(r.rows.at(0)) // row pageLen, alone on the last page, moves into row 0
		}},
		{"an insert that grows the page table", func(r *Relation) bool {
			for i := range 3 * pageLen {
				if !r.InsertValues(Int(int64(-1-i)), Int(0), String_("grown")) {
					return false
				}
			}
			return true
		}},
	} {
		r := New("k", "v", "s")
		for i := range pageLen + 1 {
			r.InsertValues(Int(int64(i)), Int(int64(i%7)), String_(fmt.Sprint("s", i%5)))
		}
		pages, n := slices.Clone(r.rows.pages), r.Len()
		var want []batchState
		for b := range r.Batches() {
			want = append(want, stateOf(b))
		}
		got := 0
		for b := range r.Batches() {
			if got == 0 && !w.write(r) {
				t.Fatalf("%s failed", w.name)
			}
			if got >= len(pages) || &b.pg[0] != &pages[got][0] || b.Len() != min(pageLen, n-got*pageLen) || !stateOf(b).equal(want[got]) {
				t.Fatalf("%s made while ranging: batch %d reads %d rows, not page %d of the %d the loop began with as it was",
					w.name, got, b.Len(), got, len(pages))
			}
			got++
		}
		if got != len(pages) {
			t.Fatalf("%s made while ranging: %d batches, want the %d pages the loop began with", w.name, got, len(pages))
		}
		checkFreshBatches(t, r, w.name)
	}
}

// TestConcurrentBatchesOfAPublishedRelation: readers range Batches of a
// published relation — which lends its pages each time — while a writer
// clones it and writes the clone. Every reader sees the relation's rows,
// and under -race no reader and the writer touch one location unsynchronized.
func TestConcurrentBatchesOfAPublishedRelation(t *testing.T) {
	r := New("k", "s")
	var sum int64
	for i := range 3*pageLen + 17 {
		r.InsertValues(Int(int64(i)), String_(fmt.Sprint("s", i%11)))
		sum += int64(i)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for reader := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				var got int64
				rows := 0
				for b := range r.Batches() {
					for _, k := range b.Ints(0) {
						got += k
					}
					if d := b.Dict(1); d == nil || d.Len() != 11 {
						t.Errorf("reader %d: a batch's dictionary changed under it", reader)
						return
					}
					rows += b.Len()
				}
				if rows != r.Len() || got != sum {
					t.Errorf("reader %d: batches cover %d rows summing to %d, want %d rows summing to %d", reader, rows, got, r.Len(), sum)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); done.Store(true) }()
	for i := 0; !done.Load(); i++ {
		c := r.Clone()
		c.InsertValues(Int(int64(-1-i)), String_("written"))
		c.Delete(Tuple{Int(int64(i % r.Len())), String_(fmt.Sprint("s", i%r.Len()%11))})
		for b := range c.Batches() {
			_ = b.Ints(0)
		}
	}
	wg.Wait()
}

// TestDropLastBesideALaterClone: a relation that wrote its last page —
// making that page its own — and was then cloned again shares the page
// once more, so dropping its last row must leave the page as the clone
// reads it. The ownership marks the first write left say "private"; the
// clone taken since says otherwise.
func TestDropLastBesideALaterClone(t *testing.T) {
	r := New("k", "v")
	for i := range 10 {
		r.InsertValues(Int(int64(i)), String_(fmt.Sprint("v", i)))
	}
	_ = r.Clone()
	r.InsertValues(Int(10), String_("v10")) // copies the last page: r's own again
	c := r.Clone()
	if !r.Delete(Tuple{Int(10), String_("v10")}) { // the last row itself: nothing moves
		t.Fatal("delete failed")
	}
	if c.Len() != 11 || !c.Contains(Tuple{Int(10), String_("v10")}) {
		t.Fatalf("the clone lost the row its original deleted: %d rows", c.Len())
	}
	n := 0
	for b := range c.Batches() {
		n += len(b.Ints(0)) + len(b.Codes(1))
	}
	if n != 22 {
		t.Fatalf("the clone's page vectors hold %d cells, want 22", n)
	}
}

// TestCloneWriteCopiesOnlyTouchedPages pins the cost model: a clone of a
// large relation with a carried index copies no page, and an insert plus a
// delete on it copy a bounded number of pages whatever the relation's size,
// leaving the original as it was.
func TestCloneWriteCopiesOnlyTouchedPages(t *testing.T) {
	var perSize []int64
	for _, n := range []int{20 * pageLen, 80 * pageLen} {
		r := New("k", "fk")
		for i := 0; i < n; i++ {
			r.InsertValues(Int(int64(i)), Int(int64(i%(n/16))))
		}
		r.Index("fk")
		c := r.Clone()
		if c.CopiedBytes() != 0 {
			t.Fatalf("n=%d: a fresh clone reports %d copied bytes", n, c.CopiedBytes())
		}
		if !c.Delete(Tuple{Int(7), Int(7)}) || !c.InsertValues(Int(int64(n)), Int(3)) {
			t.Fatalf("n=%d: delete + insert on the clone failed", n)
		}
		// rows, hashes, slots and the index's slots, next, keyHash: a
		// handful of pages each, of at most pageLen Tuple headers.
		if got, limit := c.CopiedBytes(), int64(40*pageLen*24); got == 0 || got > limit {
			t.Fatalf("n=%d: delete + insert copied %d bytes, want within (0, %d]", n, got, limit)
		}
		perSize = append(perSize, c.CopiedBytes())
		if r.Len() != n || !r.Contains(Tuple{Int(7), Int(7)}) || r.Contains(Tuple{Int(int64(n)), Int(3)}) || r.CopiedBytes() < 0 {
			t.Fatalf("n=%d: the original changed under its clone's writes", n)
		}
		ix, _ := r.Index("fk")
		if got := len(lookup(ix, Int(7))); got != 16 {
			t.Fatalf("n=%d: original's index finds %d rows for fk 7, want 16", n, got)
		}
	}
	if perSize[1] > 2*perSize[0] {
		t.Fatalf("copied bytes grow with the relation: %v", perSize)
	}
}

// TestConcurrentReadersOfSharedPages: readers join, probe, scan and run a
// vectorized selection over version k of a relation — reading the column
// pages version k-1's writer copied — encode its page sections, and clone
// it themselves, as a bare Base evaluation does, while the writer clones
// version k and applies inserts and deletes to version k+1. Every answer
// must equal the model of the version it was read from; under -race any
// write to a page a reader can reach fails.
func TestConcurrentReadersOfSharedPages(t *testing.T) {
	const fks = 50
	type version struct {
		rel   *Relation
		perFK [fks]int
	}
	v0 := &version{rel: New("k", "fk")}
	next := 0
	for ; next < 3*pageLen+17; next++ {
		v0.rel.InsertValues(Int(int64(next)), Int(int64(next%fks)))
		v0.perFK[next%fks]++
	}
	var cur atomic.Pointer[version]
	cur.Store(v0)
	var done atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(reader)))
			for i := 0; !done.Load(); i++ {
				reads.Add(1)
				v := cur.Load()
				fk := rng.Intn(fks)
				probe := New("fk")
				probe.InsertValues(Int(int64(fk)))
				r := v.rel
				if i%4 == 3 {
					r = r.Clone()
				}
				if got := NaturalJoin(probe, r).Len(); got != v.perFK[fk] {
					t.Errorf("reader %d: join finds %d rows for fk %d, version holds %d", reader, got, fk, v.perFK[fk])
					return
				}
				if got := SemiJoin(r, probe).Len(); got != v.perFK[fk] {
					t.Errorf("reader %d: semi-join finds %d rows for fk %d, version holds %d", reader, got, fk, v.perFK[fk])
					return
				}
				sigma := SelectBatch(r, func(b Batch, sel []int32) []int32 {
					for i, x := range b.Ints(1) {
						if x == int64(fk) {
							sel = append(sel, int32(i))
						}
					}
					return sel
				})
				if got := sigma.Len(); got != v.perFK[fk] {
					t.Errorf("reader %d: vectorized σ finds %d rows for fk %d, version holds %d", reader, got, fk, v.perFK[fk])
					return
				}
				ix, _ := r.Index("fk")
				if got := len(lookup(ix, Int(int64(fk)))); got != v.perFK[fk] {
					t.Errorf("reader %d: Lookup finds %d rows for fk %d, version holds %d", reader, got, fk, v.perFK[fk])
					return
				}
				n, want := 0, 0
				for tu := range r.All() {
					if !r.Contains(tu) {
						t.Errorf("reader %d: scanned row %v is not a member", reader, tu)
						return
					}
					n++
				}
				for _, c := range v.perFK {
					want += c
				}
				if n != want || r.Len() != want {
					t.Errorf("reader %d: scan sees %d rows, Len = %d, version holds %d", reader, n, r.Len(), want)
					return
				}
				if i%4 == 1 { // as a checkpointer does, racing the others for each page's slot
					secs := make([]Section, r.NumPages())
					for pi := range secs {
						s, _ := r.PageSection(pi)
						secs[pi] = *s
					}
					if back, err := DecodePages(r.Attrs(), uint64(want), secs); err != nil || !back.Equal(r) {
						t.Errorf("reader %d: the page sections decode to another relation (error %v)", reader, err)
						return
					}
				}
			}
		}(reader)
	}
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < 100 || reads.Load() < 300; k++ {
		v := cur.Load()
		nv := &version{rel: v.rel.Clone(), perFK: v.perFK}
		for op := 0; op < 6; op++ {
			if rng.Intn(2) == 0 && nv.rel.Len() > 0 {
				victim := nv.rel.rows.at(rng.Intn(nv.rel.Len())).Clone()
				nv.rel.Delete(victim)
				nv.perFK[victim[1].AsInt()]--
			} else {
				nv.rel.InsertValues(Int(int64(next)), Int(int64(next%fks)))
				nv.perFK[next%fks]++
				next++
			}
		}
		cur.Store(nv)
	}
	done.Store(true)
	wg.Wait()
}

// TestConcurrentFirstProbes: an operator's output has a membership table
// that covers none of its rows and no cached tables. Readers that share
// it probe it at once — membership, a join that builds a cached index on
// it, a semi-join that hashes its probe side, a clone — so the first of
// them builds each table while the others wait for it; under -race any
// unsynchronized write to a table fails.
func TestConcurrentFirstProbes(t *testing.T) {
	base := New("k", "fk")
	for i := range 3*pageLen + 5 {
		base.InsertValues(Int(int64(i)), Int(int64(i%50)))
	}
	for round := 0; round < 20; round++ {
		out := SelectBatch(base, func(b Batch, sel []int32) []int32 {
			for i, k := range b.Ints(0) {
				if k%2 == int64(round%2) {
					sel = append(sel, int32(i))
				}
			}
			return sel
		})
		dim := New("fk", "name")
		for i := range 50 {
			dim.InsertValues(Int(int64(i)), String_(fmt.Sprint("n", i)))
		}
		var wg sync.WaitGroup
		for reader := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				row := Tuple{Int(int64(2*reader + round%2)), Int(int64((2*reader + round%2) % 50))}
				if !out.Contains(row) || out.Contains(Tuple{Int(-1), Int(0)}) {
					t.Errorf("round %d reader %d: membership of the operator output is wrong", round, reader)
				}
				if got := NaturalJoin(dim, out).Len(); got != out.Len() {
					t.Errorf("round %d reader %d: join has %d rows, want %d", round, reader, got, out.Len())
				}
				if got := SemiJoin(out, Project(dim, "fk")).Len(); got != out.Len() {
					t.Errorf("round %d reader %d: semi-join has %d rows, want %d", round, reader, got, out.Len())
				}
				if c := out.Clone(); !c.Equal(out) {
					t.Errorf("round %d reader %d: the clone differs", round, reader)
				}
			}()
		}
		wg.Wait()
	}
}
