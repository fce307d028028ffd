package maintain

import (
	"context"
	"math/rand"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

// buildWarehouse materializes the scenario's warehouse from state st.
func buildWarehouse(t *testing.T, sc workload.Scenario, opts core.Options, st *catalog.State) (*warehouse.Warehouse, *core.Complement) {
	t.Helper()
	comp, err := core.Compute(sc.DB, sc.Views, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := warehouse.New(comp)
	if err := w.Initialize(st); err != nil {
		t.Fatal(err)
	}
	return w, comp
}

// assertTheorem41 checks the correctness criterion w' = W(d') for a
// refresh: the incrementally refreshed warehouse must equal the warehouse
// materialized from the updated source state.
func assertTheorem41(t *testing.T, w *warehouse.Warehouse, comp *core.Complement, st *catalog.State, u *catalog.Update) {
	t.Helper()
	post := st.Clone()
	if err := u.Apply(post); err != nil {
		t.Fatal(err)
	}
	want, err := comp.MaterializeWarehouseCtx(nil, post)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantRel := range want {
		got, ok := w.Relation(name)
		if !ok {
			t.Fatalf("warehouse lost relation %q", name)
		}
		if !got.Equal(wantRel) {
			t.Errorf("w'(%s) ≠ W(d')(%s):\ngot  %v\nwant %v", name, name, got, wantRel)
		}
	}
}

func TestRefreshFigure1Insertion(t *testing.T) {
	// The paper's scenario: insert ⟨Computer, Paula⟩ into Sale; the
	// integrator must join it with C1 (Paula's Emp tuple) without asking
	// the sources.
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	w, comp := buildWarehouse(t, sc, core.Proposition22(), st)
	m := NewMaintainer(comp)

	u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
		relation.String_("Computer"), relation.String_("Paula"))
	stats, err := m.RefreshContext(context.Background(), w, u)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UpdateSize != 1 {
		t.Errorf("UpdateSize = %d", stats.UpdateSize)
	}
	sold, _ := w.Relation("Sold")
	if sold.Len() != 4 || !sold.Contains(relation.Tuple{relation.String_("Computer"), relation.String_("Paula"), relation.Int(32)}) {
		t.Errorf("Sold after refresh = %v", sold)
	}
	// Paula moved out of C_Emp: her Emp tuple is now visible in Sold.
	cEmp, _ := w.Relation("C_Emp")
	if !cEmp.IsEmpty() {
		t.Errorf("C_Emp after refresh = %v", cEmp)
	}
	// Computer/Paula is in Sold, so C_Sale stays empty.
	cSale, _ := w.Relation("C_Sale")
	if !cSale.IsEmpty() {
		t.Errorf("C_Sale after refresh = %v", cSale)
	}
	assertTheorem41(t, w, comp, st, u)
}

func TestRefreshDeletion(t *testing.T) {
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	w, comp := buildWarehouse(t, sc, core.Proposition22(), st)
	m := NewMaintainer(comp)

	// Delete Mary from Emp: her two Sold tuples vanish, and her sales
	// surface in C_Sale (they lost their join partner).
	u := catalog.NewUpdate().MustDelete("Emp", sc.DB, relation.String_("Mary"), relation.Int(23))
	if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
		t.Fatal(err)
	}
	sold, _ := w.Relation("Sold")
	if sold.Len() != 1 {
		t.Errorf("Sold = %v", sold)
	}
	cSale, _ := w.Relation("C_Sale")
	if cSale.Len() != 2 {
		t.Errorf("C_Sale = %v, want Mary's two orphaned sales", cSale)
	}
	assertTheorem41(t, w, comp, st, u)
}

func TestRefreshMatchesRecompute(t *testing.T) {
	// The incremental route and the reconstruct-recompute route must agree
	// exactly, across scenarios and random updates.
	scenarios := []struct {
		sc   workload.Scenario
		opts core.Options
	}{
		{workload.Figure1(false), core.Proposition22()},
		{workload.Figure1(true), core.Theorem22()},
		{workload.Example21(true), core.Proposition22()},
		{workload.Example23(workload.E23AllKeysAndINDs, true), core.Theorem22()},
		{workload.Example23(workload.E23AllKeysAndINDs, false), core.Theorem22()},
	}
	for _, tc := range scenarios {
		t.Run(tc.sc.Name, func(t *testing.T) {
			gen := workload.NewGen(tc.sc.DB, 17)
			rng := rand.New(rand.NewSource(99))
			for round := 0; round < 10; round++ {
				st := gen.State(6 + rng.Intn(8))
				u := gen.Update(st, 1+rng.Intn(4), 1+rng.Intn(4))

				wInc, comp := buildWarehouse(t, tc.sc, tc.opts, st)
				m := NewMaintainer(comp)
				if _, err := m.RefreshContext(context.Background(), wInc, u); err != nil {
					t.Fatal(err)
				}

				wRec, comp2 := buildWarehouse(t, tc.sc, tc.opts, st)
				if err := NewMaintainer(comp2).RefreshByRecompute(wRec, u); err != nil {
					t.Fatal(err)
				}

				for _, name := range wRec.Names() {
					a, _ := wInc.Relation(name)
					b, _ := wRec.Relation(name)
					if !a.Equal(b) {
						t.Fatalf("round %d: incremental and recompute disagree on %s:\nincremental %v\nrecompute  %v\nupdate:\n%s",
							round, name, a, b, u)
					}
				}
				assertTheorem41(t, wInc, comp, st, u)
			}
		})
	}
}

func TestRefreshSequence(t *testing.T) {
	// A long sequence of refreshes must track the source exactly — no
	// drift (the warehouse never resynchronizes from the sources).
	sc := workload.Figure1(true)
	gen := workload.NewGen(sc.DB, 41)
	st := gen.State(10)
	w, comp := buildWarehouse(t, sc, core.Theorem22(), st)
	m := NewMaintainer(comp)

	cur := st.Clone()
	for round := 0; round < 30; round++ {
		u := gen.Update(cur, 3, 2)
		if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := u.Apply(cur); err != nil {
			t.Fatal(err)
		}
	}
	want, err := comp.MaterializeWarehouseCtx(nil, cur)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantRel := range want {
		got, _ := w.Relation(name)
		if !got.Equal(wantRel) {
			t.Errorf("drift after 30 rounds on %s", name)
		}
	}
	// And the sources are still reconstructible.
	bases, err := w.ReconstructBases()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sc.DB.Names() {
		orig, _ := cur.Relation(name)
		if !bases[name].Equal(orig) {
			t.Errorf("reconstruction drift on %s", name)
		}
	}
}

func TestRefreshNeverTouchesSources(t *testing.T) {
	// The virtual state must answer everything: Refresh works with the
	// source state discarded entirely.
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	w, comp := buildWarehouse(t, sc, core.Proposition22(), st)
	post := st.Clone()
	u := catalog.NewUpdate().
		MustInsert("Sale", sc.DB, relation.String_("Computer"), relation.String_("Paula")).
		MustDelete("Emp", sc.DB, relation.String_("John"), relation.Int(25))
	if err := u.Apply(post); err != nil {
		t.Fatal(err)
	}
	st = nil // the sources are gone
	m := NewMaintainer(comp)
	if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
		t.Fatal(err)
	}
	want, err := comp.MaterializeWarehouseCtx(nil, post)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantRel := range want {
		got, _ := w.Relation(name)
		if !got.Equal(wantRel) {
			t.Errorf("sourceless refresh wrong on %s", name)
		}
	}
}

func TestVirtualState(t *testing.T) {
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	_, comp := buildWarehouse(t, sc, core.Proposition22(), st)
	ws, err := comp.MaterializeWarehouseCtx(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	vst := NewVirtualState(comp, ws)
	for _, name := range []string{"Sale", "Emp"} {
		got, ok := vst.Relation(name)
		if !ok {
			t.Fatalf("virtual state missing %s", name)
		}
		want, _ := st.Relation(name)
		if !got.Equal(want) {
			t.Errorf("virtual %s = %v, want %v", name, got, want)
		}
		// A second read reconstructs again: nothing is cached, and the
		// caller may keep or mutate what it got.
		again, _ := vst.Relation(name)
		if again == got || !again.Equal(want) {
			t.Errorf("repeat read of %s returned the first read's relation or another value", name)
		}
	}
	if vst.nFull != 4 {
		t.Errorf("%d full reconstructions counted, want one per read", vst.nFull)
	}
	if _, ok := vst.Relation("Nope"); ok {
		t.Error("virtual state resolved unknown name")
	}
}

func TestRefreshStats(t *testing.T) {
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	w, comp := buildWarehouse(t, sc, core.Proposition22(), st)
	u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
		relation.String_("Computer"), relation.String_("Paula"))
	stats, err := NewMaintainer(comp).RefreshContext(context.Background(), w, u)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total() == 0 {
		t.Error("stats recorded no changes")
	}
	if stats.Changed["Sold"] != 1 {
		t.Errorf("Sold delta size = %d", stats.Changed["Sold"])
	}
	if stats.CopiedBytes <= 0 {
		t.Errorf("CopiedBytes = %d after a refresh that changed relations", stats.CopiedBytes)
	}
}

func TestRefreshNoOpUpdate(t *testing.T) {
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	w, comp := buildWarehouse(t, sc, core.Proposition22(), st)
	// Inserting an existing tuple and deleting an absent one is a no-op.
	u := catalog.NewUpdate().
		MustInsert("Sale", sc.DB, relation.String_("PC"), relation.String_("John")).
		MustDelete("Emp", sc.DB, relation.String_("Ghost"), relation.Int(1))
	stats, err := NewMaintainer(comp).RefreshContext(context.Background(), w, u)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UpdateSize != 0 || stats.Total() != 0 || stats.CopiedBytes != 0 {
		t.Errorf("no-op update produced changes: %+v", stats)
	}
	assertTheorem41(t, w, comp, st, catalog.NewUpdate())
}

func TestSigmaViewMaintenance(t *testing.T) {
	// End of Section 4: W = σ_{age>30}(Emp) is update-independent without
	// any complement.
	db := catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	vs := mustSigmaViews(t, db)
	m, err := NewSigmaMaintainer(db, vs)
	if err != nil {
		t.Fatal(err)
	}
	st := db.NewState().
		MustInsert("Emp", relation.String_("Mary"), relation.Int(23)).
		MustInsert("Emp", relation.String_("Paula"), relation.Int(32))
	w, err := m.Materialize(st)
	if err != nil {
		t.Fatal(err)
	}
	if w["Old"].Len() != 1 {
		t.Fatalf("Old = %v", w["Old"])
	}
	u := catalog.NewUpdate().
		MustInsert("Emp", db, relation.String_("Zoe"), relation.Int(45)).
		MustDelete("Emp", db, relation.String_("Paula"), relation.Int(32))
	if err := m.Refresh(w, u); err != nil {
		t.Fatal(err)
	}
	post := st.Clone()
	if err := u.Apply(post); err != nil {
		t.Fatal(err)
	}
	want, err := m.Materialize(post)
	if err != nil {
		t.Fatal(err)
	}
	if !w["Old"].Equal(want["Old"]) {
		t.Errorf("σ-view refresh wrong: %v want %v", w["Old"], want["Old"])
	}
}

func TestSigmaViewNotQueryIndependent(t *testing.T) {
	// The same σ-view warehouse cannot answer Q = Emp: two states that
	// agree on σ_{age>30}(Emp) but differ on Emp.
	db := catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	def := algebra.NewSelect(algebra.NewBase("Emp"), algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(30)))
	a := db.NewState().MustInsert("Emp", relation.String_("Paula"), relation.Int(32))
	b := a.Clone().MustInsert("Emp", relation.String_("Mary"), relation.Int(23))
	_, found, err := warehouse.FindAnswerabilityWitness(
		algebra.NewBase("Emp"),
		map[string]algebra.Expr{"Old": def},
		workload.States(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("σ-view warehouse appeared query-independent")
	}
}

func TestSigmaMaintainerValidation(t *testing.T) {
	sc := workload.Figure1(false)
	if _, err := NewSigmaMaintainer(sc.DB, sc.Views); err == nil {
		t.Error("join view accepted as σ-view")
	}
	db := catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("Emp", "clerk:string", "age:int"))
	projected := mustViewSet(t, db, "P", []string{"clerk"}, nil, "Emp")
	if _, err := NewSigmaMaintainer(db, projected); err == nil {
		t.Error("projected view accepted as σ-view")
	}
}
