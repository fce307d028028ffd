package maintain_test

import (
	"context"
	"testing"

	"dwcomplement/internal/aggregate"
	"dwcomplement/internal/core"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

// TestAggregateConsumerOnWarehouse attaches an aggregate summary over the
// Sold view and checks it stays exact through random refreshes — the
// Section 5 layering (fact tables via complements, aggregates via
// incremental summary maintenance) on the plain warehouse.
func TestAggregateConsumerOnWarehouse(t *testing.T) {
	sc := workload.Figure1(false)
	comp, err := core.Compute(sc.DB, sc.Views, core.Proposition22())
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGen(sc.DB, 77)
	st := gen.State(15)
	w := warehouse.New(comp)
	if err := w.Initialize(st); err != nil {
		t.Fatal(err)
	}

	perClerk := aggregate.New("SalesPerClerk", "Sold", []string{"clerk"}, aggregate.Count, "")
	sold, _ := w.Relation("Sold")
	if err := perClerk.Initialize(sold); err != nil {
		t.Fatal(err)
	}
	m := maintain.NewMaintainer(comp)
	m.AddConsumer(perClerk)

	cur := st.Clone()
	for round := 0; round < 20; round++ {
		u := gen.Update(cur, 3, 2)
		if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
			t.Fatal(err)
		}
		if err := u.Apply(cur); err != nil {
			t.Fatal(err)
		}
		post, _ := w.Relation("Sold")
		want, err := aggregate.Recompute(perClerk, post)
		if err != nil {
			t.Fatal(err)
		}
		if got := perClerk.Result(); !got.Equal(want) {
			t.Fatalf("round %d: aggregate drifted:\ngot  %v\nwant %v", round, got, want)
		}
	}
}

// TestDeltaExact covers the normalization helper the consumers rely on.
func TestDeltaExact(t *testing.T) {
	pre := relation.New("a")
	pre.InsertValues(relation.Int(1))
	pre.InsertValues(relation.Int(2))

	d := maintain.Delta{Ins: relation.New("a"), Del: relation.New("a")}
	d.Ins.InsertValues(relation.Int(1)) // already present: dropped
	d.Ins.InsertValues(relation.Int(3)) // genuinely new: kept
	d.Del.InsertValues(relation.Int(2)) // present: kept
	d.Del.InsertValues(relation.Int(9)) // absent: dropped

	e := d.Exact(pre)
	if e.Ins.Len() != 1 || !e.Ins.Contains(relation.Tuple{relation.Int(3)}) {
		t.Errorf("Ins = %v", e.Ins)
	}
	if e.Del.Len() != 1 || !e.Del.Contains(relation.Tuple{relation.Int(2)}) {
		t.Errorf("Del = %v", e.Del)
	}

	// Overlap: delete+insert of a present tuple is a no-op on both sides.
	o := maintain.Delta{Ins: relation.New("a"), Del: relation.New("a")}
	o.Ins.InsertValues(relation.Int(1))
	o.Del.InsertValues(relation.Int(1))
	e = o.Exact(pre)
	if !e.IsEmpty() {
		t.Errorf("overlap not dropped: %v / %v", e.Ins, e.Del)
	}
	// Semantics preserved: applying d vs e to clones of pre agree.
	a, b := pre.Clone(), pre.Clone()
	d.ApplyTo(a)
	d.Exact(pre).ApplyTo(b)
	if !a.Equal(b) {
		t.Error("Exact changed delta semantics")
	}
}
