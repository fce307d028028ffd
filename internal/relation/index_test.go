package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// lookup returns copies of the rows of ix's owner whose indexed columns
// equal vals, given in the index's (sorted) attribute order.
func lookup(ix *Index, vals ...Value) []Tuple {
	t, identity := Tuple(vals), allCols(len(vals))
	var out []Tuple
	_, ri := ix.seek(t.hash64())
	for ; ri >= 0; ri = ix.after(ri) {
		if ix.owner.rows.matches(int(ri), ix.pos, t, identity) {
			out = append(out, ix.owner.rows.at(int(ri)))
		}
	}
	return out
}

// tables returns every table of r by cache key: the cached ones, and its
// membership table under "".
func tables(r *Relation) map[string]*Index {
	all := map[string]*Index{"": r.tableFor(r.attrs, "")}
	for key, ix := range r.indexes {
		all[key] = ix
	}
	return all
}

func indexedPair() (*Relation, *Relation) {
	l := New("a", "b")
	l.InsertValues(Int(1), String_("x"))
	l.InsertValues(Int(2), String_("y"))
	l.InsertValues(Int(3), String_("x"))
	r := New("b", "c")
	r.InsertValues(String_("x"), Int(10))
	r.InsertValues(String_("y"), Int(20))
	r.InsertValues(String_("z"), Int(30))
	return l, r
}

func TestIndexBuildAndLookup(t *testing.T) {
	_, r := indexedPair()
	ix, ok := r.Index("b")
	if !ok {
		t.Fatal("Index(b) not ok")
	}
	if ix.Keys() != 3 || !ix.Unique() {
		t.Errorf("keys=%d unique=%v, want 3 unique", ix.Keys(), ix.Unique())
	}
	got := lookup(ix, String_("x"))
	if len(got) != 1 || !got[0][1].Equal(Int(10)) {
		t.Errorf("Lookup(x) = %v", got)
	}
	if hits := lookup(ix, String_("nope")); len(hits) != 0 {
		t.Errorf("Lookup(nope) = %v", hits)
	}
	if _, ok := r.Index("nope"); ok {
		t.Error("Index over a foreign attribute must report !ok")
	}
}

func TestIndexIsCachedAndAttrOrderCanonical(t *testing.T) {
	r := New("a", "b", "c")
	r.InsertValues(Int(1), String_("x"), Int(2))
	r.Index("a", "b")
	if n := r.IndexCount(); n != 1 {
		t.Fatalf("IndexCount = %d, want 1", n)
	}
	// Caller attribute order must not create a second index.
	r.Index("b", "a")
	if n := r.IndexCount(); n != 1 {
		t.Fatalf("IndexCount after reordered request = %d, want 1", n)
	}
}

// TestIndexOverEveryAttributeIsTheMembershipTable: the index over every
// attribute is the relation's membership table, not a second cached one.
func TestIndexOverEveryAttributeIsTheMembershipTable(t *testing.T) {
	_, r := indexedPair()
	r.Index("b")
	ix, ok := r.Index("c", "b")
	if !ok || ix.table != &r.set || r.IndexCount() != 1 {
		t.Fatalf("Index over every attribute: ok=%v, the membership table: %v, IndexCount = %d, want 1", ok, ix.table == &r.set, r.IndexCount())
	}
	if got := lookup(ix, String_("y"), Int(20)); len(got) != 1 || !ix.Unique() || ix.Keys() != 3 {
		t.Errorf("membership table as an index: Lookup = %v, unique = %v, keys = %d", got, ix.Unique(), ix.Keys())
	}
}

// FuzzIndexesFollowMutations is the carried-table property: after any
// sequence of inserts and deletes, the membership table and every table
// cached before or during the sequence — built, or holding key hashes
// only — answer exactly like ones built from scratch on the final rows,
// and none is dropped along the way. Small value domains make chains long
// and hash slots shared, so unlinking, re-pointing the swapped-in last row
// and backward-shift slot deletion are all exercised; a join re-run after
// every batch of mutations would miss or duplicate tuples on a stale
// chain. The seed corpus is seeds 0–29.
func FuzzIndexesFollowMutations(f *testing.F) {
	for seed := int64(0); seed < 30; seed++ {
		f.Add(seed)
	}
	attrSets := [][]string{{"a"}, {"b"}, {"a", "c"}, {"a", "b", "c"}}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		domain := 3 + rng.Intn(12)
		row := func() Tuple {
			vals := []Value{Int(int64(rng.Intn(domain))), String_(fmt.Sprint("s", rng.Intn(domain))), Null()}
			if rng.Intn(3) > 0 {
				vals[2] = Float(float64(rng.Intn(domain)) / 2)
			}
			return Tuple(vals)
		}
		r := New("a", "b", "c")
		for i := 0; i < 40; i++ {
			r.Insert(row())
		}
		probe := New("b", "d")
		for i := 0; i < domain; i++ {
			probe.InsertValues(String_(fmt.Sprint("s", i)), Int(int64(i)))
		}
		for step := 0; step < 300; step++ {
			switch {
			case step%50 == 0: // build access paths at different points of the history
				as := attrSets[(step/50)%len(attrSets)]
				r.Index(as...)
				r.tableFor([]string{"c"}, "c") // key hashes only: a table whose slots are never built
				NaturalJoin(probe, r)          // caches a table on b
				SemiJoin(r, Project(probe, "b"))
			case rng.Intn(2) == 0 && r.Len() > 0:
				if !r.Delete(r.rows.at(rng.Intn(r.Len())).Clone()) {
					t.Fatal("Delete of a present row failed")
				}
			default:
				r.Insert(row())
			}
			if step%10 != 0 {
				continue
			}
			before := r.IndexCount()
			fresh := New("a", "b", "c")
			for tu := range r.All() {
				fresh.Insert(tu)
			}
			for _, tu := range append(r.SortedTuples(), row(), row()) {
				if got, want := r.Contains(tu), fresh.Contains(tu); got != want {
					t.Fatalf("seed %d step %d: Contains(%v) = %v, fresh build says %v", seed, step, tu, got, want)
				}
			}
			for key, ix := range tables(r) {
				if ix.hashes.len() != r.Len() {
					t.Fatalf("seed %d step %d table %q: %d hashes for %d rows", seed, step, key, ix.hashes.len(), r.Len())
				}
				for i := range r.Len() {
					var key Tuple // the row's projection onto the table's columns
					for _, p := range ix.pos {
						key = append(key, r.rows.at(i)[p])
					}
					if ix.hashes.at(i) != key.hash64() {
						t.Fatalf("seed %d step %d table %q: stale hash at row %d", seed, step, key, i)
					}
				}
				if ix.slots.len() == 0 {
					continue
				}
				want, _ := fresh.Index(ix.attrs...)
				if ix.Keys() != want.Keys() || ix.Unique() != want.Unique() {
					t.Fatalf("seed %d step %d index %q: keys=%d unique=%v, fresh build has keys=%d unique=%v",
						seed, step, key, ix.Keys(), ix.Unique(), want.Keys(), want.Unique())
				}
				_, _, dup := ix.dupPair()
				if _, _, wdup := want.dupPair(); dup != wdup {
					t.Fatalf("seed %d step %d index %q: dupPair=%v, fresh build says %v", seed, step, key, dup, wdup)
				}
				for _, tu := range append(r.SortedTuples(), row(), row()) {
					vals := make([]Value, len(ix.pos))
					for i, p := range ix.pos {
						vals[i] = tu[p]
					}
					got, exp := New("a", "b", "c"), New("a", "b", "c")
					for _, hit := range lookup(ix, vals...) {
						if !got.Insert(hit) {
							t.Fatalf("seed %d step %d index %q: Lookup(%v) returned %v twice", seed, step, key, vals, hit)
						}
					}
					for _, hit := range lookup(want, vals...) {
						exp.Insert(hit)
					}
					if !got.Equal(exp) {
						t.Fatalf("seed %d step %d index %q: Lookup(%v) = %v, fresh build gives %v", seed, step, key, vals, got, exp)
					}
				}
			}
			if got, want := NaturalJoin(probe, r), NaturalJoin(probe, fresh); !got.Equal(want) {
				t.Fatalf("seed %d step %d: join through carried indexes has %d tuples, fresh relation gives %d", seed, step, got.Len(), want.Len())
			}
			if n := r.IndexCount(); n < before {
				t.Fatalf("seed %d step %d: IndexCount dropped from %d to %d", seed, step, before, n)
			}
		}
		if c := r.indexes["c"]; r.IndexCount() < len(attrSets)-1 || c == nil || c.slots.len() != 0 {
			t.Fatalf("seed %d: %d indexes survived, want at least %d, and a table on c without slots", seed, r.IndexCount(), len(attrSets)-1)
		}
	})
}

// TestLongChainIndexIsDroppedOnDelete: carrying an index costs a delete at
// most maxChainWalk chain steps. An index over a constant column survives
// deletes at the head of its one chain (the newest rows) and is dropped,
// not walked, by a delete deep inside it; the next operator rebuilds it.
func TestLongChainIndexIsDroppedOnDelete(t *testing.T) {
	r := New("k", "loc")
	for i := 0; i < 4*maxChainWalk; i++ {
		r.InsertValues(Int(int64(i)), String_("paris"))
	}
	r.Index("k")
	r.Index("loc")
	newest := r.rows.at(r.Len() - 1).Clone()
	if r.Delete(newest); r.IndexCount() != 2 {
		t.Fatalf("deleting the chain's head row dropped an index: %d left", r.IndexCount())
	}
	if r.Delete(Tuple{Int(0), String_("paris")}); r.IndexCount() != 1 {
		t.Fatalf("IndexCount = %d after a delete %d rows down a chain, want the loc index dropped", r.IndexCount(), r.Len())
	}
	if ix, _ := r.Index("k"); len(lookup(ix, Int(0))) != 0 || len(lookup(ix, Int(1))) != 1 {
		t.Error("the key index did not follow the delete")
	}
	if ix, _ := r.Index("loc"); len(lookup(ix, String_("paris"))) != r.Len() || ix.Keys() != 1 {
		t.Errorf("rebuilt loc index finds %d of %d rows", len(lookup(ix, String_("paris"))), r.Len())
	}
}

// TestNoOpMutationsKeepIndexes: a duplicate insert and a delete of an
// absent tuple touch nothing.
func TestNoOpMutationsKeepIndexes(t *testing.T) {
	_, r := indexedPair()
	ix, _ := r.Index("b")
	r.InsertValues(String_("x"), Int(10)) // duplicate
	r.Delete(Tuple{String_("q"), Int(0)}) // absent
	if again, _ := r.Index("b"); again != ix || r.IndexCount() != 1 || ix.Keys() != 3 {
		t.Errorf("no-op mutations disturbed the index: count=%d keys=%d", r.IndexCount(), ix.Keys())
	}
}

func TestOpStatsCounters(t *testing.T) {
	l, r := indexedPair()
	var s OpStats
	NaturalJoinStats(l, r, &s)
	if s.IndexBuilds != 1 {
		t.Errorf("IndexBuilds = %d, want 1", s.IndexBuilds)
	}
	if s.Probed == 0 || s.IndexHits == 0 || s.Emitted != 3 {
		t.Errorf("stats = %+v", s)
	}
	// Second run hits the cache.
	s = OpStats{}
	NaturalJoinStats(l, r, &s)
	if s.IndexBuilds != 0 || s.IndexHits == 0 {
		t.Errorf("cached run stats = %+v", s)
	}
}
