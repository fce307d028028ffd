package view

import (
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
)

func figure1DB(t *testing.T) *catalog.Database {
	t.Helper()
	return catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("Sale", "item:string", "clerk:string")).
		MustAddSchema(relation.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
}

// rstDB is Example 2.1's schema: R(X,Y), S(Y,Z), T(Z).
func rstDB(t *testing.T) *catalog.Database {
	t.Helper()
	return catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("R", "X", "Y")).
		MustAddSchema(relation.NewSchema("S", "Y", "Z")).
		MustAddSchema(relation.NewSchema("T", "Z"))
}

func soldView() *PSJ {
	return NewPSJ("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp")
}

func TestPSJBasics(t *testing.T) {
	db := figure1DB(t)
	v := soldView()
	if err := v.Validate(db); err != nil {
		t.Fatal(err)
	}
	if !v.Involves("Sale") || !v.Involves("Emp") || v.Involves("Nope") {
		t.Error("Involves wrong")
	}
	if !v.ProjSet().Equal(relation.NewAttrSet("item", "clerk", "age")) {
		t.Error("ProjSet wrong")
	}
	sj, err := v.IsSJ(db)
	if err != nil || !sj {
		t.Errorf("Sold must be an SJ view: %v %v", sj, err)
	}
	if got := v.String(); !strings.Contains(got, "Sold = ") || !strings.Contains(got, "⋈") {
		t.Errorf("String = %q", got)
	}
	c := v.Clone()
	c.Proj[0] = "zzz"
	if v.Proj[0] == "zzz" {
		t.Error("Clone shares storage")
	}
}

func TestPSJNotSJ(t *testing.T) {
	db := figure1DB(t)
	v := NewPSJ("V", []string{"item", "clerk"}, nil, "Sale", "Emp")
	sj, err := v.IsSJ(db)
	if err != nil || sj {
		t.Errorf("projected view must not be SJ: %v %v", sj, err)
	}
}

func TestPSJValidateErrors(t *testing.T) {
	db := figure1DB(t)
	bad := []*PSJ{
		NewPSJ("", []string{"item"}, nil, "Sale"),
		NewPSJ("V", []string{"item"}, nil),
		NewPSJ("V", []string{"item"}, nil, "Sale", "Sale"),
		NewPSJ("V", []string{"item"}, nil, "Nope"),
		NewPSJ("V", []string{}, nil, "Sale"),
		NewPSJ("V", []string{"age"}, nil, "Sale"),
		NewPSJ("V", []string{"item"}, algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(1)), "Sale"),
	}
	for i, v := range bad {
		if err := v.Validate(db); err == nil {
			t.Errorf("case %d: invalid view accepted: %s", i, v)
		}
	}
}

func TestPSJEval(t *testing.T) {
	db := figure1DB(t)
	st := db.NewState().
		MustInsert("Sale", relation.String_("TV"), relation.String_("Mary")).
		MustInsert("Emp", relation.String_("Mary"), relation.Int(23)).
		MustInsert("Emp", relation.String_("Paula"), relation.Int(32))
	got, err := soldView().EvalCtx(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.AttrSet().Equal(relation.NewAttrSet("item", "clerk", "age")) {
		t.Errorf("Sold = %v", got)
	}
	sel := NewPSJ("Old", []string{"clerk"}, algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(30)), "Emp")
	or, err := sel.EvalCtx(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if or.Len() != 1 || !or.Contains(relation.Tuple{relation.String_("Paula")}) {
		t.Errorf("Old = %v", or)
	}
}

func TestFromExpr(t *testing.T) {
	db := figure1DB(t)
	tests := []struct {
		name  string
		e     algebra.Expr
		bases []string
		proj  relation.AttrSet
		cond  bool // non-trivial condition expected
	}{
		{
			"plain base",
			algebra.NewBase("Sale"),
			[]string{"Sale"}, relation.NewAttrSet("item", "clerk"), false,
		},
		{
			"join",
			algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
			[]string{"Sale", "Emp"}, relation.NewAttrSet("item", "clerk", "age"), false,
		},
		{
			"project select join",
			algebra.NewProject(
				algebra.NewSelect(
					algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
					algebra.AttrCmpConst("age", algebra.OpLt, relation.Int(30))),
				"item", "clerk"),
			[]string{"Sale", "Emp"}, relation.NewAttrSet("item", "clerk"), true,
		},
		{
			"select above project",
			algebra.NewSelect(
				algebra.NewProject(algebra.NewBase("Emp"), "clerk"),
				algebra.AttrEqConst("clerk", relation.String_("Mary"))),
			[]string{"Emp"}, relation.NewAttrSet("clerk"), true,
		},
		{
			// π_clerk(Sale) drops only "item", which Emp does not share, so
			// the projection folds past the join.
			"join over foldable projected input",
			algebra.NewJoin(algebra.NewProject(algebra.NewBase("Sale"), "clerk"), algebra.NewBase("Emp")),
			[]string{"Sale", "Emp"}, relation.NewAttrSet("clerk", "age"), false,
		},
		{
			"select of join of selects",
			algebra.NewJoin(
				algebra.NewSelect(algebra.NewBase("Sale"), algebra.AttrEqConst("item", relation.String_("TV"))),
				algebra.NewSelect(algebra.NewBase("Emp"), algebra.AttrCmpConst("age", algebra.OpGe, relation.Int(18)))),
			[]string{"Sale", "Emp"}, relation.NewAttrSet("item", "clerk", "age"), true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, err := FromExpr("V", tt.e, db)
			if err != nil {
				t.Fatal(err)
			}
			if !v.BaseSet().Equal(relation.NewAttrSet(tt.bases...)) {
				t.Errorf("bases = %v, want %v", v.BaseSet(), tt.bases)
			}
			if !v.ProjSet().Equal(tt.proj) {
				t.Errorf("proj = %v, want %v", v.ProjSet(), tt.proj)
			}
			if got := !algebra.IsTrivial(v.Cond); got != tt.cond {
				t.Errorf("nontrivial cond = %v, want %v", got, tt.cond)
			}
		})
	}
}

func TestFromExprPreservesSemantics(t *testing.T) {
	db := figure1DB(t)
	st := db.NewState().
		MustInsert("Sale", relation.String_("TV"), relation.String_("Mary")).
		MustInsert("Sale", relation.String_("PC"), relation.String_("John")).
		MustInsert("Emp", relation.String_("Mary"), relation.Int(23)).
		MustInsert("Emp", relation.String_("John"), relation.Int(45))
	exprs := []algebra.Expr{
		algebra.NewProject(
			algebra.NewSelect(
				algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
				algebra.AttrCmpConst("age", algebra.OpLt, relation.Int(30))),
			"item", "clerk"),
		algebra.NewJoin(algebra.NewProject(algebra.NewBase("Sale"), "clerk"), algebra.NewBase("Emp")),
		algebra.NewSelect(
			algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "item", "age"),
			algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(30))),
	}
	for _, e := range exprs {
		v, err := FromExpr("V", e, db)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		want := mustEval(t, e, st)
		got, err := v.EvalCtx(nil, st)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("normalization of %s changed semantics:\ngot  %v\nwant %v", e, got, want)
		}
	}
}

func TestFromExprRejections(t *testing.T) {
	db := figure1DB(t)
	bad := []algebra.Expr{
		algebra.NewUnion(algebra.NewProject(algebra.NewBase("Sale"), "clerk"), algebra.NewProject(algebra.NewBase("Emp"), "clerk")),
		algebra.NewDiff(algebra.NewProject(algebra.NewBase("Sale"), "clerk"), algebra.NewProject(algebra.NewBase("Emp"), "clerk")),
		algebra.NewRename(algebra.NewBase("Sale"), map[string]string{"item": "x"}),
		algebra.NewEmpty("a"),
		// Join over an input that projected away a *shared* attribute.
		algebra.NewJoin(algebra.NewProject(algebra.NewBase("Emp"), "age"), algebra.NewBase("Sale")),
		// Self-join.
		algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Sale")),
		// Unknown base.
		algebra.NewBase("Nope"),
		// Selection on projected-away attribute.
		algebra.NewSelect(algebra.NewProject(algebra.NewBase("Emp"), "clerk"), algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(1))),
		// Projection outside input attrs.
		algebra.NewProject(algebra.NewBase("Sale"), "age"),
	}
	for i, e := range bad {
		if _, err := FromExpr("V", e, db); err == nil {
			t.Errorf("case %d: non-PSJ expression accepted: %s", i, e)
		}
	}
}

func TestSet(t *testing.T) {
	db := rstDB(t)
	v1 := NewPSJ("V1", []string{"X", "Y", "Z"}, nil, "R", "S", "T")
	v2 := NewPSJ("V2", []string{"Y", "Z"}, nil, "S")
	s := MustNewSet(db, v1, v2)
	if s.Len() != 2 {
		t.Error("Len")
	}
	if got := s.Names(); got[0] != "V1" || got[1] != "V2" {
		t.Errorf("Names = %v", got)
	}
	if _, ok := s.ByName("V1"); !ok {
		t.Error("ByName")
	}
	// V_R classifications.
	if over := s.Over("S"); len(over) != 2 {
		t.Errorf("V_S = %v", over)
	}
	if over := s.Over("R"); len(over) != 1 || over[0].Name != "V1" {
		t.Errorf("V_R = %v", over)
	}
	if over := s.Over("Nope"); over != nil {
		t.Errorf("V_Nope = %v", over)
	}
	// WithKey: views containing key {Y} of S.
	wk := s.WithKey("S", relation.NewAttrSet("Y"))
	if len(wk) != 2 {
		t.Errorf("V_K = %v", wk)
	}
	wk2 := s.WithKey("S", relation.NewAttrSet("Y", "Q"))
	if len(wk2) != 0 {
		t.Errorf("V_K with alien key = %v", wk2)
	}
	// Resolver namespace.
	res := s.Resolver()
	if a, ok := res.BaseAttrs("V2"); !ok || !a.Equal(relation.NewAttrSet("Y", "Z")) {
		t.Error("Resolver wrong")
	}
}

func TestSetErrors(t *testing.T) {
	db := figure1DB(t)
	if _, err := NewSet(db, soldView(), soldView()); err == nil {
		t.Error("duplicate view names accepted")
	}
	if _, err := NewSet(db, NewPSJ("Sale", []string{"item", "clerk"}, nil, "Sale")); err == nil {
		t.Error("view name clashing with base accepted")
	}
	if _, err := NewSet(db, NewPSJ("V", []string{"zz"}, nil, "Sale")); err == nil {
		t.Error("invalid view accepted")
	}
}

func TestSetEval(t *testing.T) {
	db := figure1DB(t)
	st := db.NewState().
		MustInsert("Sale", relation.String_("TV"), relation.String_("Mary")).
		MustInsert("Emp", relation.String_("Mary"), relation.Int(23))
	s := MustNewSet(db, soldView())
	mats, err := s.EvalCtx(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if mats["Sold"].Len() != 1 {
		t.Errorf("Sold = %v", mats["Sold"])
	}
}

// mustEval evaluates an expression the test has already validated.
func mustEval(t testing.TB, e algebra.Expr, st algebra.State) *relation.Relation {
	t.Helper()
	r, err := algebra.EvalCtx(nil, e, st)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
