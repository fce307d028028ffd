package warehouse

import (
	"sync"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/core"
	"dwcomplement/internal/parse"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

func TestCloneAndLoadState(t *testing.T) {
	w, _ := buildFigure1(t, false)
	if w.Complement() == nil {
		t.Fatal("Complement accessor lost")
	}
	snap := w.CloneState()
	// Mutating the clone must not touch the warehouse.
	snap["Sold"].InsertValues(relation.String_("X"), relation.String_("Y"), relation.Int(1))
	sold, _ := w.Relation("Sold")
	if sold.Len() != 3 {
		t.Error("CloneState shares storage")
	}
	// LoadState installs the snapshot verbatim.
	w2 := New(w.Complement())
	w2.LoadState(snap)
	got, _ := w2.Relation("Sold")
	if got.Len() != 4 {
		t.Errorf("LoadState lost data: %d", got.Len())
	}
	// State() exposes the live map.
	if len(w2.State()) != len(snap) {
		t.Error("State() inconsistent")
	}
}

func TestTranslateQueryUnoptimized(t *testing.T) {
	w, sc := buildFigure1(t, true)
	q := algebra.NewSelect(algebra.NewBase("Emp"),
		algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(30)))
	plain, err := w.TranslateQueryUnoptimized(q)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := w.TranslateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Both must evaluate identically on the warehouse.
	a, err := algebra.EvalCtx(nil, plain, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := algebra.EvalCtx(nil, opt, w)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("optimizer changed the answer:\nplain %s → %v\nopt   %s → %v", plain, a, opt, b)
	}
	// The unoptimized form keeps the selection on top of the union; the
	// optimized form distributes it inside (top node becomes the union).
	if _, ok := plain.(*algebra.Select); !ok {
		t.Errorf("unexpected plain shape: %s", plain)
	}
	if _, ok := opt.(*algebra.Union); !ok {
		t.Errorf("pushdown did not fire: %s", opt)
	}
	// Error paths.
	if _, err := w.TranslateQueryUnoptimized(algebra.NewBase("Nope")); err == nil {
		t.Error("invalid query accepted")
	}
	_ = sc
}

func TestCheckQueryIndependenceReportsFailure(t *testing.T) {
	// A deliberately broken "complement" (prefixed differently so names
	// don't collide) is not checked here — instead, feed a query whose
	// translation is fine but compare against a corpus including an
	// inconsistent state for the constraint-based complement: with
	// referential integrity assumed and C_Sale dropped, a state violating
	// the IND must make the check fail.
	sc := workload.Figure1(true)
	comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
	if err != nil {
		t.Fatal(err)
	}
	w := New(comp)
	if err := w.Initialize(sc.DB.NewState()); err != nil {
		t.Fatal(err)
	}
	bad := sc.DB.NewState().
		MustInsert("Sale", relation.String_("TV"), relation.String_("Ghost")) // violates the IND
	err = w.CheckQueryIndependence(
		[]algebra.Expr{algebra.NewBase("Sale")},
		[]algebra.State{bad})
	if err == nil {
		t.Error("constraint-violating state must break the dropped-complement reconstruction")
	}
	// Error paths: invalid query.
	if err := w.CheckQueryIndependence([]algebra.Expr{algebra.NewBase("Nope")}, nil); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	sc := workload.Figure1(false)
	// A name clash makes Compute fail inside Build.
	views := workload.Figure1(false).Views
	opts := core.Proposition22()
	opts.NamePrefix = "Sold" // C-prefix collides with the view name "Sold"? No — prefix+base: "SoldSale".
	// Instead force failure via UseINDs without UseKeys.
	bad := core.Options{UseINDs: true}
	if _, err := Build(sc.DB, views, bad, workload.Figure1State(sc.DB)); err == nil {
		t.Error("invalid options accepted by Build")
	}
}

// TestInitializeConcurrentIsSequential: Initialize evaluates the views and
// stored complements side by side; what it materializes is what evaluating
// them one after the other gives, also when several warehouses initialize
// from one state at the same time (the state is only read), and when
// definitions fail the error is the first in declaration order.
func TestInitializeConcurrentIsSequential(t *testing.T) {
	spec, err := parse.SpecText(workload.Section5Spec)
	if err != nil {
		t.Fatal(err)
	}
	workload.FillSection5(spec.State, 4000) // facts span two row pages
	comp, err := core.Compute(spec.DB, spec.Views, core.Theorem22())
	if err != nil {
		t.Fatal(err)
	}
	want := make(algebra.MapState)
	for _, v := range spec.Views.Views() {
		if want[v.Name], err = v.EvalCtx(nil, spec.State); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range comp.StoredEntries() {
		if want[e.Name], err = algebra.EvalCtx(nil, e.Def, spec.State); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := New(comp)
			if err := w.Initialize(spec.State); err != nil {
				t.Error(err)
				return
			}
			if len(w.State()) != len(want) {
				t.Errorf("materialized %v, want %d relations", w.Names(), len(want))
			}
			for name, r := range want {
				if got, ok := w.Relation(name); !ok || !got.Equal(r) {
					t.Errorf("%s differs from its sequential evaluation", name)
				}
			}
		}()
	}
	wg.Wait()

	// Without Customer, DimCustomer (first view) and TokyoFR (last) both
	// fail; without Part as well, so does DimPart. The first is reported.
	broken := algebra.MapState{}
	for _, name := range []string{"Site", "Order_paris", "Order_tokyo"} {
		broken[name] = spec.State.MustRelation(name)
	}
	_, wantErr := spec.Views.Views()[0].EvalCtx(nil, broken)
	for i := 0; i < 20; i++ {
		err := New(comp).Initialize(broken)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Initialize over a state without Customer and Part: %v, want %v", err, wantErr)
		}
	}
}
