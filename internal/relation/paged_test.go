package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// modelRel is a relation over (a, b, c, e) under test beside the map that
// says what it must hold, keyed by the a column (the tests keep a unique).
// No index covers e, which carries what the page images must get right:
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
// All, the membership table, each cached index (Lookup, Unique, Keys is
// bounded by the distinct keys), each cached key-hash vector and the page
// images, decoded batch by batch. It leaves every page with an image.
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
	for key, ix := range r.indexes {
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
			hits := ix.Lookup(vals...)
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
		if hits := ix.Lookup(make([]Value, len(ix.pos))...); len(hits) != 0 {
			t.Fatalf("%s index %q: Lookup(NULLs) returns %v", what, key, hits)
		}
	}
	for key, kv := range r.keyVecs {
		got := r.keyHashesFor(strings.Split(key, "\x00"), key)
		if got != &kv.hashes || got.len() != r.Len() {
			t.Fatalf("%s keyVec %q: %d hashes for %d rows", what, key, got.len(), r.Len())
		}
		for i, tu := range r.rows.all() {
			if got.at(i) != hashCols(tu, kv.pos) {
				t.Fatalf("%s keyVec %q: stale hash at row %d", what, key, i)
			}
		}
	}
	rows := 0
	for b := range r.Batches() {
		if b.Start() != rows || b.NumCols() != 4 || b.ColKind(0) != ColInt || b.ColKind(1) != ColString || b.Dict(1).Len() > b.Len() {
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
	if rows != len(m.model) || r.PageImages() != r.rows.numPages() {
		t.Fatalf("%s: Batches cover %d rows in %d page images, model has %d rows in %d pages", what, rows, r.PageImages(), len(m.model), r.rows.numPages())
	}
}

// imagesOf returns, per row page of r that has a slot, the image the slot
// holds (nil where none is built).
func imagesOf(r *Relation) []*pageImage {
	out := make([]*pageImage, len(r.derived))
	for pi, sl := range r.derived {
		if sl != nil {
			out[pi] = sl.image.Load()
		}
	}
	return out
}

// imagesChanged counts the row pages whose image is not the one before
// holds for them: dropped, rebuilt, or beyond a table that shrank.
func (m *modelRel) imagesChanged(before []*pageImage) int {
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
// further clones and lazily built indexes, key-hash vectors and page
// images, every live relation equals its own model after every step —
// the original after its clone was mutated and the clone after the
// original was. Start sizes sit below, on and above page boundaries and
// below a growth of the membership table, so steps cross them both ways.
// The page images follow the row pages: a clone holds the very images of
// the original, an insert drops at most one and a delete at most two, and
// every other page keeps the image it had.
func TestClonesAreIndependent(t *testing.T) {
	attrSets := [][]string{{"a"}, {"b"}, {"a", "c"}, {"a", "b", "c"}}
	dim := New("b", "d") // larger than any relation under test: joins build on it and probe with theirs
	for i := 0; i < 8*pageLen; i++ {
		dim.InsertValues(String_(fmt.Sprint("s", i)), Int(int64(i)))
	}
	keyVecs, arenas := 0, 0
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
					m.rel.indexFor([]string{"c"}, "c", m.rel.Len()) // hinted: carries a keyVals arena
				} else {
					m.rel.Index(as...)
				}
			default:
				if got := NaturalJoin(m.rel, dim).Len(); got != m.rel.Len() { // caches a key-hash vector over b
					t.Fatalf("seed %d step %d: join with the dimension has %d rows, want %d", seed, step, got, m.rel.Len())
				}
			}
			for i, l := range live {
				l.check(t, fmt.Sprintf("seed %d step %d relation %d/%d", seed, step, i, len(live)))
			}
			keyVecs += len(m.rel.keyVecs)
			if ix := m.rel.indexes["c"]; ix != nil && ix.hasVals {
				arenas++
			}
		}
	}
	if keyVecs == 0 || arenas == 0 {
		t.Fatalf("the steps carried %d key-hash vectors and %d keyVals arenas through mutations, want both", keyVecs, arenas)
	}
}

// TestDerivedFormsFollowThePage: what is derived from an immutable page
// belongs to the page. An image or a section first derived through a
// relation after it was cloned — the checkpointer encoding version N while
// the writer is on N+k — is the very pointer its clones, their clones and
// its renamings return, in either direction; a write to a page gives the
// writer a fresh, empty slot for that page and leaves every other page's
// slot, and every other relation's, as it was.
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
	for range r.Batches() { // every image, through the original
	}
	sec2, encoded := r.PageSection(2)
	if !encoded {
		t.Fatal("the first PageSection of a page reports a cached section")
	}
	for _, o := range []*Relation{c, cc, ren} {
		var st OpStats
		for pi := range r.NumPages() {
			if o.slot(pi) != r.slot(pi) {
				t.Fatalf("page %d: a relation sharing the page holds another slot", pi)
			}
			if im := o.pageImage(pi, &st); im == nil || im != r.slot(pi).image.Load() {
				t.Fatalf("page %d: the image derived through the original is not the one its clone returns", pi)
			}
		}
		if got, enc := o.PageSection(2); got != sec2 || enc || st.ImagePages != 0 {
			t.Fatalf("a clone re-derived forms of shared pages: section encoded = %v, %d images built", enc, st.ImagePages)
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
	before, others := slotsOf(c), slotsOf(r)
	victim := c.rows.at(pageLen + 5).Clone()
	if !c.Delete(victim) { // writes page 1 and, moving the last row in, page 3
		t.Fatal("delete failed")
	}
	for pi, sl := range slotsOf(c) {
		written := pi == 1 || pi == 3
		if (sl != before[pi]) != written {
			t.Errorf("after a delete on page 1: page %d's slot replaced = %v, want %v", pi, sl != before[pi], written)
		}
		if written && (sl.image.Load() != nil || sl.section.Load() != nil) {
			t.Errorf("page %d: the writer's fresh slot already holds a form", pi)
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
			if sl != others[pi] || sl.image.Load() == nil {
				t.Errorf("page %d: a write through one relation touched another's slot", pi)
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
		if got := len(ix.Lookup(Int(7))); got != 16 {
			t.Fatalf("n=%d: original's index finds %d rows for fk 7, want 16", n, got)
		}
	}
	if perSize[1] > 2*perSize[0] {
		t.Fatalf("copied bytes grow with the relation: %v", perSize)
	}
}

// TestConcurrentReadersOfSharedPages: readers join, probe, scan and run a
// vectorized selection over version k of a relation — building the images
// of the pages version k-1's writer left without one —, encode its page
// sections, and clone it themselves, as a bare Base evaluation does, while
// the writer clones version k and applies inserts and deletes to version
// k+1. Every answer must equal the model of the version it was read from;
// under -race any write to a page a reader can reach fails.
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
				if got := len(ix.Lookup(Int(int64(fk)))); got != v.perFK[fk] {
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
