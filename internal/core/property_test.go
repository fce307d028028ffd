package core

import (
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/workload"
)

// TestComplementPropertyRandomScenarios is the whole-system fuzz test: for
// random schemata, keys, acyclic INDs and random PSJ view sets, the
// computed complement must satisfy Definition 2.2 (every base relation is
// reconstructed exactly) and Proposition 2.1 (the warehouse mapping is
// injective) on random consistent states — under both option regimes.
func TestComplementPropertyRandomScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing skipped in -short mode")
	}
	for seed := int64(0); seed < 40; seed++ {
		sc := workload.RandomScenario(seed, 2+int(seed%4), 1+int(seed%3))
		for _, opts := range []Options{Proposition22(), Theorem22()} {
			comp, err := Compute(sc.DB, sc.Views, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v\n%s\n%s", seed, opts, err, sc.DB, sc.Views)
			}
			states := workload.States(workload.NewGen(sc.DB, seed+1000).States(12, 6)...)
			if err := comp.CheckReconstruction(states); err != nil {
				t.Errorf("seed %d opts %+v: reconstruction: %v\nviews:\n%s\ncomplement:\n%s",
					seed, opts, err, sc.Views, comp)
			}
			if err := comp.CheckInjectivity(states); err != nil {
				t.Errorf("seed %d opts %+v: injectivity: %v", seed, opts, err)
			}
			checkInversesOverResolver(t, sc.Name, comp)
		}
	}
}

// TestConstrainedComplementNeverLarger checks the monotonicity claim
// behind Theorem 2.2: exploiting constraints never yields a complement
// that stores more than Proposition 2.2's, on any sampled state.
func TestConstrainedComplementNeverLarger(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		sc := workload.RandomScenario(seed, 3, 2)
		prop, err := Compute(sc.DB, sc.Views, Proposition22())
		if err != nil {
			t.Fatal(err)
		}
		thm, err := Compute(sc.DB, sc.Views, Theorem22())
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range workload.NewGen(sc.DB, seed+500).States(8, 6) {
			a, err := prop.StoredSize(st)
			if err != nil {
				t.Fatal(err)
			}
			b, err := thm.StoredSize(st)
			if err != nil {
				t.Fatal(err)
			}
			if b > a {
				t.Errorf("seed %d: Theorem 2.2 complement stores %d > Prop 2.2's %d\n%s\nvs\n%s",
					seed, b, a, thm, prop)
			}
		}
	}
}

// TestProvedEmptyComplementsAreEmpty validates every static emptiness
// proof dynamically: a complement marked AlwaysEmpty must evaluate to the
// empty relation on every consistent random state.
func TestProvedEmptyComplementsAreEmpty(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 40; seed++ {
		sc := workload.RandomScenario(seed, 2+int(seed%4), 1+int(seed%3))
		comp, err := Compute(sc.DB, sc.Views, Theorem22())
		if err != nil {
			t.Fatal(err)
		}
		var emptyDefs []algebra.Expr
		for _, e := range comp.Entries() {
			if e.AlwaysEmpty {
				// Re-derive what the definition would have been without
				// the emptiness shortcut.
				opts := Theorem22()
				opts.DetectEmpty = false
				full, err := Compute(sc.DB, sc.Views, opts)
				if err != nil {
					t.Fatal(err)
				}
				fe, _ := full.Entry(e.Base)
				emptyDefs = append(emptyDefs, fe.Def)
			}
		}
		if len(emptyDefs) == 0 {
			continue
		}
		checked++
		for _, st := range workload.NewGen(sc.DB, seed+2000).States(8, 6) {
			for _, def := range emptyDefs {
				r, err := algebra.EvalCtx(nil, def, st)
				if err != nil {
					t.Fatal(err)
				}
				if !r.IsEmpty() {
					t.Errorf("seed %d: complement proved empty but contains %d tuple(s): %s",
						seed, r.Len(), def)
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no scenario produced a proved-empty complement (generator drift)")
	}
}
