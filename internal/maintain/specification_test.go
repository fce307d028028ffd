package maintain

import (
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/workload"
)

func TestSpecifyFigure1(t *testing.T) {
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	spec, err := Specify(comp)
	if err != nil {
		t.Fatal(err)
	}
	// Step 1.2: inverses for both base relations.
	if len(spec.Inverses) != 2 {
		t.Fatalf("inverses = %d", len(spec.Inverses))
	}
	// Step 3: programs for Sold and both stored complements, under four
	// update classes each (ins/del × Sale/Emp).
	for _, target := range []string{"Sold", "C_Sale", "C_Emp"} {
		progs, ok := spec.Programs[target]
		if !ok {
			t.Fatalf("no programs for %s", target)
		}
		for _, class := range []string{"ins:Sale", "del:Sale", "ins:Emp", "del:Emp"} {
			p, ok := progs[class]
			if !ok {
				t.Errorf("%s lacks class %s", target, class)
				continue
			}
			// Warehouse-only: no base relation names in the expressions.
			for _, e := range []algebra.Expr{p.Ins, p.Del} {
				for b := range algebra.Bases(e) {
					if b == "Sale" || b == "Emp" {
						t.Errorf("%s/%s references base %q: %s", target, class, b, e)
					}
				}
			}
		}
	}
	// The rendered document mentions every step.
	doc := spec.String()
	for _, want := range []string{"Step 1.1", "Step 1.2", "Step 2", "Step 3", "ins:Sale", "Δ+Sale"} {
		if !strings.Contains(doc, want) {
			t.Errorf("specification document missing %q", want)
		}
	}
}

// TestSpecificationProgramsCorrect executes every derived maintenance
// program on concrete data and compares against recomputation.
func TestSpecificationProgramsCorrect(t *testing.T) {
	scenarios := []struct {
		sc   workload.Scenario
		opts core.Options
	}{
		{workload.Figure1(false), core.Proposition22()},
		{workload.Figure1(true), core.Theorem22()},
		{workload.Example23(workload.E23AllKeysAndINDs, true), core.Theorem22()},
	}
	for _, tc := range scenarios {
		t.Run(tc.sc.Name, func(t *testing.T) {
			comp := core.MustCompute(tc.sc.DB, tc.sc.Views, tc.opts)
			spec, err := Specify(comp)
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewGen(tc.sc.DB, 19)
			for round := 0; round < 8; round++ {
				st := gen.State(8)
				ws, err := comp.MaterializeWarehouseCtx(nil, st)
				if err != nil {
					t.Fatal(err)
				}
				for _, base := range tc.sc.DB.Names() {
					for _, insOnly := range []bool{true, false} {
						var u = gen.Update(st, 0, 3)
						class := "del:" + base
						if insOnly {
							u = gen.Update(st, 3, 0)
							class = "ins:" + base
						}
						// Restrict the update to the single relation the
						// class covers.
						u = restrictUpdateTo(t, u, base, tc.sc)
						if u.IsEmpty() {
							continue
						}
						post := st.Clone()
						if err := u.Apply(post); err != nil {
							t.Fatal(err)
						}
						for _, target := range comp.Targets() {
							p := spec.Programs[target.Name][class]
							d, err := EvalMaintenance(p, algebra.MapState(ws), u, tc.sc.DB)
							if err != nil {
								t.Fatalf("%s/%s: %v", target.Name, class, err)
							}
							got := ws[target.Name].Clone()
							d.ApplyTo(got)
							want, err := algebra.EvalCtx(nil, target.Def, post)
							if err != nil {
								t.Fatal(err)
							}
							if !got.Equal(want) {
								t.Errorf("round %d %s under %s: program wrong:\nIns %s\nDel %s\ngot  %v\nwant %v",
									round, target.Name, class, p.Ins, p.Del, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// restrictUpdateTo keeps only the changes touching the given relation.
func restrictUpdateTo(t *testing.T, u *catalog.Update, base string, sc workload.Scenario) *catalog.Update {
	t.Helper()
	out := catalog.NewUpdate()
	if ins := u.Inserts(base); ins != nil {
		for tu := range ins.All() {
			if err := out.Insert(base, sc.DB, alignTuple(ins, ins, tu)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if del := u.Deletes(base); del != nil {
		for tu := range del.All() {
			if err := out.Delete(base, sc.DB, alignTuple(del, del, tu)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func TestSpecificationTranslateQuery(t *testing.T) {
	sc := workload.Figure1(true)
	comp := core.MustCompute(sc.DB, sc.Views, core.Theorem22())
	spec, err := Specify(comp)
	if err != nil {
		t.Fatal(err)
	}
	q := algebra.NewProject(algebra.NewBase("Sale"), "clerk")
	tq, err := spec.TranslateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for b := range algebra.Bases(tq) {
		if b == "Sale" || b == "Emp" {
			t.Errorf("translation references base %q: %s", b, tq)
		}
	}
	if _, err := spec.TranslateQuery(algebra.NewBase("Nope")); err == nil {
		t.Error("invalid query accepted")
	}
}
