package dwc_test

// Property tests for the indexed join operators: on randomized states the
// hash-index implementations must agree exactly with naive nested-loop
// references, before and after mutations (which must invalidate any cached
// index).

import (
	"fmt"
	"testing"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// naiveNaturalJoin is the textbook O(|l|·|r|) natural join.
func naiveNaturalJoin(l, r *relation.Relation) *relation.Relation {
	type pair struct{ lp, rp int }
	var shared []pair
	var rOnly []int
	attrs := append([]string(nil), l.Attrs()...)
	for rp, a := range r.Attrs() {
		if lp, ok := l.Pos(a); ok {
			shared = append(shared, pair{lp, rp})
		} else {
			rOnly = append(rOnly, rp)
			attrs = append(attrs, a)
		}
	}
	out := relation.New(attrs...)
	for lt := range l.All() {
		for rt := range r.All() {
			match := true
			for _, p := range shared {
				if !lt[p.lp].Equal(rt[p.rp]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			row := append(append(relation.Tuple(nil), lt...), pick(rt, rOnly)...)
			out.Insert(row)
		}
	}
	return out
}

// naiveSemiJoin is the textbook r ⋉ probe scan.
func naiveSemiJoin(r, probe *relation.Relation) *relation.Relation {
	pos := make([]int, 0, len(probe.Attrs()))
	for _, a := range probe.Attrs() {
		p, ok := r.Pos(a)
		if !ok {
			return relation.New(r.Attrs()...)
		}
		pos = append(pos, p)
	}
	out := relation.New(r.Attrs()...)
	for rt := range r.All() {
		for pt := range probe.All() {
			match := true
			for i, p := range pos {
				if !rt[p].Equal(pt[i]) {
					match = false
					break
				}
			}
			if match {
				out.Insert(rt)
				break
			}
		}
	}
	return out
}

func pick(t relation.Tuple, pos []int) relation.Tuple {
	out := make(relation.Tuple, len(pos))
	for i, p := range pos {
		out[i] = t[p]
	}
	return out
}

// propDB is a three-relation chain with dense value domains so natural
// joins, semi-joins and key-based extension joins all have work to do.
func propDB() *catalog.Database {
	return catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("R", "a:int", "b:string")).
		MustAddSchema(relation.NewSchema("S", "b:string", "c:int")).
		MustAddSchema(relation.NewSchema("T", "c:int", "d:int").WithKey("c"))
}

func TestNaturalJoinMatchesNaive(t *testing.T) {
	db := propDB()
	for seed := int64(0); seed < 12; seed++ {
		gen := workload.NewGen(db, seed)
		gen.Domain = 8
		st := gen.State(40)
		pairs := [][2]string{{"R", "S"}, {"S", "T"}, {"R", "T"}, {"S", "R"}}
		for _, p := range pairs {
			l, r := st.MustRelation(p[0]), st.MustRelation(p[1])
			got := relation.NaturalJoin(l, r)
			want := naiveNaturalJoin(l, r)
			if !got.Equal(want) {
				t.Fatalf("seed %d: %s join %s: got %d tuples, want %d\ngot  %v\nwant %v",
					seed, p[0], p[1], got.Len(), want.Len(), got, want)
			}
			// The indexed result must not depend on which side was indexed
			// first; rerun now that a cache exists.
			if again := relation.NaturalJoin(l, r); !again.Equal(want) {
				t.Fatalf("seed %d: cached %s join %s diverges", seed, p[0], p[1])
			}
		}
	}
}

func TestSemiJoinMatchesNaive(t *testing.T) {
	db := propDB()
	for seed := int64(0); seed < 12; seed++ {
		gen := workload.NewGen(db, seed)
		gen.Domain = 8
		st := gen.State(40)
		r := st.MustRelation("S")
		probes := []*relation.Relation{
			relation.Project(st.MustRelation("R"), "b"), // partial-width
			relation.Project(st.MustRelation("T"), "c"), // partial-width, other attr
			st.MustRelation("S").Clone(),                // full-width
		}
		for i, probe := range probes {
			got := relation.SemiJoin(r, probe)
			want := naiveSemiJoin(r, probe)
			if !got.Equal(want) {
				t.Fatalf("seed %d probe %d: got %v, want %v", seed, i, got, want)
			}
		}
	}
}

func TestExtensionJoinMatchesNaive(t *testing.T) {
	db := propDB()
	key := relation.NewAttrSet("c")
	for seed := int64(0); seed < 12; seed++ {
		gen := workload.NewGen(db, seed)
		gen.Domain = 8
		st := gen.State(40)
		l, r := st.MustRelation("S"), st.MustRelation("T")
		got, err := relation.ExtensionJoin(l, r, key)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The shared attributes are exactly the key, so the extension join
		// must equal the natural join.
		want := naiveNaturalJoin(l, r)
		if !got.Equal(want) {
			t.Fatalf("seed %d: got %v, want %v", seed, got, want)
		}
	}
}

func TestJoinsStayCorrectAcrossMutations(t *testing.T) {
	db := propDB()
	gen := workload.NewGen(db, 7)
	gen.Domain = 8
	st := gen.State(40)
	l, r := st.MustRelation("R"), st.MustRelation("S")
	for round := 0; round < 10; round++ {
		if got, want := relation.NaturalJoin(l, r), naiveNaturalJoin(l, r); !got.Equal(want) {
			t.Fatalf("round %d: join stale after mutation: got %v, want %v", round, got, want)
		}
		probe := relation.Project(l, "b")
		if got, want := relation.SemiJoin(r, probe), naiveSemiJoin(r, probe); !got.Equal(want) {
			t.Fatalf("round %d: semi-join stale after mutation", round)
		}
		// Mutate both sides under the caches built above.
		v := relation.String_(fmt.Sprintf("v%d", round))
		l.InsertValues(relation.Int(int64(1000+round)), v)
		r.InsertValues(v, relation.Int(int64(round)))
		if round%3 == 0 && r.Len() > 0 {
			r.Delete(r.SortedTuples()[0])
		}
	}
}
