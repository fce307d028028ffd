package dwc_test

import (
	"context"
	"math/rand"
	"testing"

	"dwcomplement/internal/aggregate"
	"dwcomplement/internal/algebra"
	"dwcomplement/internal/core"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

// TestGrandFuzz is the whole-system property test: for random schemata,
// constraints and PSJ view sets, the full pipeline must hold together —
// the computed complement reconstructs and is injective, random source
// queries translate and answer identically, and random update streams
// maintained incrementally track W(d') exactly.
func TestGrandFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing skipped in -short mode")
	}
	for seed := int64(100); seed < 130; seed++ {
		seed := seed
		sc := workload.RandomScenario(seed, 2+int(seed%4), 1+int(seed%3))
		for _, opts := range []core.Options{core.Proposition22(), core.Theorem22()} {
			comp, err := core.Compute(sc.DB, sc.Views, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			gen := workload.NewGen(sc.DB, seed*7+1)
			st := gen.State(8)
			w := warehouse.New(comp)
			if err := w.Initialize(st); err != nil {
				t.Fatal(err)
			}
			m := maintain.NewMaintainer(comp)

			rng := rand.New(rand.NewSource(seed))
			cur := st.Clone()
			for round := 0; round < 6; round++ {
				// Random source query: a projection of a random base, or a
				// union of two base projections on a shared attribute.
				q := randomSourceQuery(rng, sc)
				if q != nil {
					want, err := algebra.EvalCtx(nil, q, cur)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := w.AnswerContext(context.Background(), q)
					if err != nil {
						t.Fatalf("seed %d round %d: %v (query %s)", seed, round, err, q)
					}
					if !got.Equal(want) {
						t.Fatalf("seed %d round %d: query independence violated for %s", seed, round, q)
					}
				}

				u := gen.Update(cur, 1+rng.Intn(4), rng.Intn(3))
				if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
				if err := u.Apply(cur); err != nil {
					t.Fatal(err)
				}
				want, err := comp.MaterializeWarehouseCtx(nil, cur)
				if err != nil {
					t.Fatal(err)
				}
				for name, wantRel := range want {
					got, _ := w.Relation(name)
					if !got.Equal(wantRel) {
						t.Fatalf("seed %d round %d: %s diverged from W(d')", seed, round, name)
					}
				}
			}
			// The final warehouse still reconstructs the sources exactly.
			bases, err := w.ReconstructBases()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range sc.DB.Names() {
				orig, _ := cur.Relation(name)
				if !bases[name].Equal(orig) {
					t.Fatalf("seed %d: final reconstruction of %s wrong", seed, name)
				}
			}
		}
	}
}

// randomSourceQuery builds a small random query over the scenario's bases.
func randomSourceQuery(rng *rand.Rand, sc workload.Scenario) algebra.Expr {
	names := sc.DB.Names()
	a := names[rng.Intn(len(names))]
	scA, _ := sc.DB.Schema(a)
	switch rng.Intn(3) {
	case 0:
		return algebra.NewBase(a)
	case 1:
		attrs := scA.AttrSet().Sorted()
		return algebra.NewProject(algebra.NewBase(a), attrs[rng.Intn(len(attrs))])
	default:
		b := names[rng.Intn(len(names))]
		scB, _ := sc.DB.Schema(b)
		shared := scA.AttrSet().Intersect(scB.AttrSet())
		if shared.IsEmpty() {
			return nil
		}
		attr := shared.Sorted()[0]
		return algebra.NewUnion(
			algebra.NewProject(algebra.NewBase(a), attr),
			algebra.NewProject(algebra.NewBase(b), attr))
	}
}

// TestGrandFuzzWithConsumers repeats a shorter fuzz with an aggregate
// consumer attached over a random view, asserting it never drifts.
func TestGrandFuzzWithConsumers(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing skipped in -short mode")
	}
	for seed := int64(200); seed < 212; seed++ {
		sc := workload.RandomScenario(seed, 3, 2)
		comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGen(sc.DB, seed)
		st := gen.State(8)
		w := warehouse.New(comp)
		if err := w.Initialize(st); err != nil {
			t.Fatal(err)
		}
		// Count per first projected attribute of the first view.
		v := sc.Views.Views()[0]
		groupAttr := v.Proj[0]
		agg := aggregate.New("Counts", v.Name, []string{groupAttr}, aggregate.Count, "")
		fact, _ := w.Relation(v.Name)
		if err := agg.Initialize(fact); err != nil {
			t.Fatal(err)
		}
		m := maintain.NewMaintainer(comp)
		m.AddConsumer(agg)

		cur := st.Clone()
		for round := 0; round < 6; round++ {
			u := gen.Update(cur, 2, 2)
			if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
				t.Fatal(err)
			}
			if err := u.Apply(cur); err != nil {
				t.Fatal(err)
			}
			post, _ := w.Relation(v.Name)
			want := countBy(post, groupAttr)
			if !agg.Result().Equal(want) {
				t.Fatalf("seed %d round %d: aggregate drifted", seed, round)
			}
		}
	}
}

func countBy(r *relation.Relation, attr string) *relation.Relation {
	counts := map[string]int64{}
	keys := map[string]relation.Value{}
	for t := range r.All() {
		v := r.Get(t, attr)
		counts[v.Literal()]++
		keys[v.Literal()] = v
	}
	out := relation.New(attr, "count")
	for k, n := range counts {
		out.InsertValues(keys[k], relation.Int(n))
	}
	return out
}
