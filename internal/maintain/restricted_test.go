package maintain

import (
	"math/rand"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// TestRestrictedContract verifies the restricted-value invariant on every
// node type: for any probe, the restricted value agrees with the full
// value exactly on probe-matching tuples (both directions), for the old and
// the new value, across random states and updates — the last update of every
// round deletes and re-inserts the same tuples, pinning the leaf's
// new = (old ∖ Δ⁻) ∪ Δ⁺ ("Ins wins") — and that the full values are the
// expressions' values before and after the update.
func TestRestrictedContract(t *testing.T) {
	sc := workload.Figure1(false)
	exprs := []algebra.Expr{
		algebra.NewBase("Sale"),
		algebra.NewSelect(algebra.NewBase("Emp"), algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(24))),
		algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "clerk", "age"),
		algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
		algebra.NewUnion(
			algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
			algebra.NewProject(algebra.NewBase("Emp"), "clerk")),
		algebra.NewDiff(
			algebra.NewProject(algebra.NewBase("Emp"), "clerk"),
			algebra.NewProject(algebra.NewBase("Sale"), "clerk")),
		algebra.NewDiff(algebra.NewBase("Emp"),
			algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "clerk", "age")),
		algebra.NewRename(algebra.NewBase("Emp"), map[string]string{"clerk": "person"}),
	}
	gen := workload.NewGen(sc.DB, 3)
	rng := rand.New(rand.NewSource(8))

	for round := 0; round < 25; round++ {
		st := gen.State(8)
		u := gen.Update(st, 2, 2)
		if round%5 == 4 {
			// Delete and re-insert what is there: the state must not change.
			for _, name := range []string{"Sale", "Emp"} {
				r, _ := st.Relation(name)
				for i, tu := range r.SortedTuples() {
					if i%2 == 0 {
						if err := u.Delete(name, sc.DB, tu); err != nil {
							t.Fatal(err)
						}
						if err := u.Insert(name, sc.DB, tu); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		post := st.Clone()
		if err := u.Apply(post); err != nil {
			t.Fatal(err)
		}
		for _, e := range exprs {
			p := newPropagation(st, u, nil)
			n, err := p.propagate(e)
			if err != nil {
				t.Fatal(err)
			}
			// full[0] is the old value, full[1] the new one.
			values := [2]algebra.Expr{n.old, n.new}
			var full [2]*relation.Relation
			for i, ref := range [2]algebra.State{st, post} {
				v, err := p.read(values[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := mustEval(t, e, ref); !v.Equal(want) {
					t.Fatalf("full value %d of %s = %v, want %v", i, e, v, want)
				}
				full[i] = v
			}

			// Probes: random subsets of the node's attributes with random
			// values drawn half from the relation, half fresh.
			attrs := n.attrs()
			probeAttrs := []string{attrs[rng.Intn(len(attrs))]}
			if len(attrs) > 1 && rng.Intn(2) == 0 {
				probeAttrs = append(probeAttrs, attrs[rng.Intn(len(attrs))])
				if probeAttrs[0] == probeAttrs[1] {
					probeAttrs = probeAttrs[:1]
				}
			}
			probe := relation.New(probeAttrs...)
			for _, src := range []*relation.Relation{full[1], full[0]} {
				for _, tu := range src.SortedTuples() {
					if rng.Intn(3) == 0 {
						pt := make(relation.Tuple, len(probeAttrs))
						for i, a := range probeAttrs {
							pos, _ := src.Pos(a)
							pt[i] = tu[pos]
						}
						probe.Insert(pt)
					}
				}
			}
			// A guaranteed-miss probe value.
			miss := make(relation.Tuple, len(probeAttrs))
			for i := range miss {
				miss[i] = relation.Int(99999)
			}
			probe.Insert(miss)

			for which, value := range values {
				restricted, err := p.read(value, probe)
				if err != nil {
					t.Fatal(err)
				}
				// Matching tuples must agree exactly.
				wantMatching := relation.SemiJoin(full[which], probe)
				gotMatching := relation.SemiJoin(restricted, probe)
				if !gotMatching.Equal(wantMatching) {
					t.Fatalf("restricted(%v) of %s disagrees on matching tuples:\nprobe %v\ngot  %v\nwant %v\nfull %v",
						which, e, probe, gotMatching, wantMatching, full[which])
				}
			}
		}
	}
}

// TestRestrictedAvoidsFullJoin is the performance contract behind E12: a
// single-tuple insertion into Sale must not force the full Sold join. The
// work is measured directly: what the evaluator scans and probes to
// propagate the insertion through Sale ⋈ Emp over 300-row relations stays a
// small constant.
func TestRestrictedAvoidsFullJoin(t *testing.T) {
	sc := workload.Figure1(false)
	gen := workload.NewGen(sc.DB, 5)
	gen.Domain = 1000
	st := gen.State(300)

	u := gen.Update(st, 1, 0)
	if u.IsEmpty() {
		t.Skip("generator produced empty update")
	}
	w, comp := buildWarehouse(t, sc, core.Proposition22(), st)
	ec := algebra.NewEvalContext(nil)
	join := algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp"))
	d, err := Propagate(join, NewVirtualStateCtx(comp, w, ec), u)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Del.IsEmpty() {
		t.Errorf("insert-only update produced join deletions: %v", d.Del)
	}
	if es := ec.Stats(); es.Scanned+es.Probed > 16 {
		t.Errorf("single-tuple insertion scanned %d and probed %d rows of 300-row relations", es.Scanned, es.Probed)
	}
}
