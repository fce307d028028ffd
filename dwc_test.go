package dwc_test

import (
	"context"
	"testing"

	dwc "dwcomplement"
)

// TestFacadePipeline runs the whole public pipeline end to end: schema,
// views, complement, warehouse, query answering, incremental refresh,
// symbolic maintenance — everything a downstream user touches.
func TestFacadePipeline(t *testing.T) {
	db := dwc.NewDatabase()
	db.MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string"))
	db.MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))

	views := dwc.MustNewViewSet(db,
		dwc.NewView("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp"))

	st := db.NewState().
		MustInsert("Sale", dwc.Str("TV set"), dwc.Str("Mary")).
		MustInsert("Sale", dwc.Str("VCR"), dwc.Str("Mary")).
		MustInsert("Sale", dwc.Str("PC"), dwc.Str("John")).
		MustInsert("Emp", dwc.Str("Mary"), dwc.Int(23)).
		MustInsert("Emp", dwc.Str("John"), dwc.Int(25)).
		MustInsert("Emp", dwc.Str("Paula"), dwc.Int(32))

	w, err := dwc.BuildWarehouse(db, views, dwc.Proposition22(), st)
	if err != nil {
		t.Fatal(err)
	}

	// Query independence: Example 1.2's query.
	q := dwc.MustParseExpr("pi{clerk}(Sale) union pi{clerk}(Emp)")
	ans, err := dwc.Answer(context.Background(), w, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Errorf("clerks = %v", ans)
	}

	// Update independence: the paper's insertion, maintained incrementally.
	m := dwc.NewMaintainer(w.Complement())
	u := dwc.NewUpdate().MustInsert("Sale", db, dwc.Str("Computer"), dwc.Str("Paula"))
	stats, err := dwc.Refresh(context.Background(), m, w, u)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total() == 0 {
		t.Error("refresh changed nothing")
	}
	sold, _ := w.Relation("Sold")
	if sold.Len() != 4 {
		t.Errorf("|Sold| = %d", sold.Len())
	}

	// Symbolic maintenance (Example 4.1).
	me, err := dwc.DeriveMaintenance("Sold", views.Views()[0].Expr(), dwc.InsertionsInto("Sale"), db)
	if err != nil {
		t.Fatal(err)
	}
	wme := dwc.TranslateMaintenance(me, w.Complement())
	if wme.Ins == nil {
		t.Error("no warehouse maintenance expression derived")
	}
}

func TestFacadeSpecAndConditions(t *testing.T) {
	spec, err := dwc.ParseSpec(`
relation Emp(clerk string, age int) key(clerk)
view Old = sigma{age > 30}(Emp)
insert Emp('Paula', 32)
insert Emp('Mary', 23)
`)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := dwc.ComputeComplement(spec.DB, spec.Views, dwc.Theorem22())
	if err != nil {
		t.Fatal(err)
	}
	w := dwc.NewWarehouse(comp)
	if err := w.Initialize(spec.State); err != nil {
		t.Fatal(err)
	}
	cond := dwc.AttrCmp("age", dwc.OpLt, dwc.Int(30))
	v := dwc.NewView("Young", []string{"clerk"}, cond, "Emp")
	if err := v.Validate(spec.DB); err != nil {
		t.Fatal(err)
	}
	young, err := dwc.EvalExpr(context.Background(), v.Expr(), spec.State)
	if err != nil {
		t.Fatal(err)
	}
	if young.Len() != 1 {
		t.Errorf("Young = %v", young)
	}
}

func TestFacadeStarBusiness(t *testing.T) {
	b, err := dwc.NewBusiness([]string{"paris", "tokyo"}, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Populate(8, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.BuildWarehouse(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Complement().StoredEntries()) != 0 {
		t.Error("full business fact table should need no stored complement")
	}
}
