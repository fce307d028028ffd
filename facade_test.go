package dwc_test

import (
	"path/filepath"
	"strings"
	"testing"

	dwc "dwcomplement"
)

// TestFacadeSurface exercises every remaining facade export end to end so
// the public API stays wired to the internals.
func TestFacadeSurface(t *testing.T) {
	db := dwc.NewDatabase()
	db.MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string"))
	db.MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	db.MustAddIND("Sale", "Emp", "clerk")

	// ViewFromExpr + ParseCond + NewRelation + value constructors.
	cond, err := dwc.ParseCond("age >= 21 and clerk != 'nobody'")
	if err != nil {
		t.Fatal(err)
	}
	v, err := dwc.ViewFromExpr("Adults",
		dwc.MustParseExpr("pi{clerk,age}(sigma{age >= 21 and clerk != 'nobody'}(Emp))"), db)
	if err != nil {
		t.Fatal(err)
	}
	_ = cond
	views, err := dwc.NewViewSet(db, v)
	if err != nil {
		t.Fatal(err)
	}

	r := dwc.NewRelation("x", "y")
	r.InsertValues(dwc.Int(1), dwc.Float(2.5))
	r.InsertValues(dwc.Bool(true), dwc.Null())
	if r.Len() != 2 {
		t.Error("relation construction")
	}

	// Workload generation through the facade.
	gen := dwc.NewWorkloadGen(db, 11)
	states := dwc.WorkloadStates(gen.States(5, 6)...)
	if len(states) != 6 {
		t.Errorf("states = %d", len(states))
	}

	comp, err := dwc.ComputeComplement(db, views, dwc.Theorem22())
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.CheckReconstruction(states); err != nil {
		t.Error(err)
	}

	// Section 5 specification.
	spec, err := dwc.Specify(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spec.String(), "Step 3") {
		t.Error("specification document incomplete")
	}
	tq, err := spec.TranslateQuery(dwc.MustParseExpr("pi{clerk}(Emp)"))
	if err != nil {
		t.Fatal(err)
	}
	if tq == nil {
		t.Error("specification translation nil")
	}

	// OptimizeExpr.
	opt := dwc.OptimizeExpr(
		dwc.MustParseExpr("sigma{age > 30}(pi{clerk,age}(Emp))"), db)
	if opt == nil {
		t.Error("OptimizeExpr nil")
	}

	// Snapshot round trip through the facade.
	st := gen.State(5)
	w := dwc.NewWarehouse(comp)
	if err := w.Initialize(st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wh.snap")
	if err := dwc.SaveSnapshot(path, w.State()); err != nil {
		t.Fatal(err)
	}
	ms, err := dwc.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dwc.VerifySnapshot(ms, comp.Resolver()); err != nil {
		t.Error(err)
	}
}

// TestFacadeEnvironment drives the decoupled deployment via the facade.
func TestFacadeEnvironment(t *testing.T) {
	db := dwc.NewDatabase()
	db.MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string"))
	db.MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	views := dwc.MustNewViewSet(db,
		dwc.NewView("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp"))
	comp, err := dwc.ComputeComplement(db, views, dwc.Proposition22())
	if err != nil {
		t.Fatal(err)
	}
	env, err := dwc.NewEnvironment(comp, map[string][]string{
		"sales": {"Sale"}, "company": {"Emp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	company, _ := env.Source("company")
	u := dwc.NewUpdate().MustInsert("Emp", db, dwc.Str("Zoe"), dwc.Int(33))
	if _, err := company.Apply(u); err != nil {
		t.Fatal(err)
	}
	if n := env.TotalQueryAttempts(); n != 0 {
		t.Errorf("queries = %d", n)
	}
	// NewSource standalone.
	s, err := dwc.NewSource("open", db, false, "Sale")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "open" {
		t.Error("source name")
	}
	// Star warehouse via explicit Build.
	biz, err := dwc.NewBusiness([]string{"a", "b"}, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := biz.Populate(5, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := dwc.BuildStarWarehouse(biz.DB, biz.Dims, []*dwc.FactSpec{biz.Fact}, dwc.Theorem22(), st)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Size() == 0 {
		t.Error("star warehouse empty")
	}
	// Symbolic maintenance shapes.
	me, err := dwc.DeriveMaintenance("Sold", views.Views()[0].Expr(), dwc.DeletionsFrom("Emp"), db)
	if err != nil {
		t.Fatal(err)
	}
	if dwc.TranslateMaintenance(me, comp).Target != "Sold" {
		t.Error("maintenance translation")
	}
	// Condition helpers.
	if dwc.AttrEq("x", dwc.Int(1)) == nil || dwc.AttrCmp("x", dwc.OpNe, dwc.Int(2)) == nil {
		t.Error("condition constructors")
	}
}
