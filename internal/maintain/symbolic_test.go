package maintain

import (
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
	"dwcomplement/internal/workload"
)

func mustSigmaViews(t *testing.T, db *catalog.Database) *view.Set {
	t.Helper()
	return view.MustNewSet(db, view.NewPSJ("Old", []string{"clerk", "age"},
		algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(30)), "Emp"))
}

func mustViewSet(t *testing.T, db *catalog.Database, name string, proj []string, cond algebra.Cond, bases ...string) *view.Set {
	t.Helper()
	return view.MustNewSet(db, view.NewPSJ(name, proj, cond, bases...))
}

// TestExample41Symbolic reproduces Example 4.1: the maintenance
// expressions for an insertion set s into Sale, first over the sources,
// then translated to warehouse-only form.
func TestExample41Symbolic(t *testing.T) {
	sc := workload.Figure1(false)
	sold := sc.Views.Views()[0]
	shape := InsertionsInto("Sale")

	m, err := Derive("Sold", sold.Expr(), shape, sc.DB)
	if err != nil {
		t.Fatal(err)
	}
	// Over the sources: Sold gains s ⋈ Emp and loses nothing.
	if _, isEmpty := m.Del.(*algebra.Empty); !isEmpty {
		t.Errorf("Del = %s, want empty", m.Del)
	}
	bases := algebra.Bases(m.Ins)
	if !bases.Has(InsName("Sale")) || !bases.Has("Emp") {
		t.Errorf("Ins = %s, want a join of Δ+Sale with Emp", m.Ins)
	}
	if bases.Has("Sale") {
		t.Errorf("Ins = %s: insertion delta must not scan Sale", m.Ins)
	}

	// Warehouse-only form: Emp replaced by π{clerk,age}(Sold) ∪ C_Emp —
	// the paper's s ⋈ (π_clerk,age(Sold) ∪ C1).
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	wm := TranslateToWarehouse(m, comp)
	wBases := algebra.Bases(wm.Ins)
	for b := range wBases {
		if b != "Sold" && b != "C_Emp" && b != InsName("Sale") {
			t.Errorf("warehouse maintenance references %q: %s", b, wm.Ins)
		}
	}
	if !wBases.Has("Sold") || !wBases.Has("C_Emp") {
		t.Errorf("warehouse maintenance = %s, want π(Sold) ∪ C_Emp inside", wm.Ins)
	}
	if got := wm.String(); !strings.Contains(got, "Sold' =") {
		t.Errorf("String = %q", got)
	}
}

// TestSymbolicMatchesRuntime cross-checks the symbolic derivation against
// the runtime propagation on concrete data, for both update shapes, on the
// view and on a complement definition.
func TestSymbolicMatchesRuntime(t *testing.T) {
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	cEmpDef := mustEntry(t, comp, "Emp").Def
	soldDef := sc.Views.Views()[0].Expr()

	gen := workload.NewGen(sc.DB, 55)
	for round := 0; round < 15; round++ {
		st := gen.State(8)
		insOnly := gen.Update(st, 4, 0)
		delOnly := gen.Update(st, 0, 4)

		cases := []struct {
			name  string
			def   algebra.Expr
			u     *catalog.Update
			shape Shape
		}{
			{"Sold/ins", soldDef, insOnly, InsertionsInto("Sale", "Emp")},
			{"Sold/del", soldDef, delOnly, DeletionsFrom("Sale", "Emp")},
			{"C_Emp/ins", cEmpDef, insOnly, InsertionsInto("Sale", "Emp")},
			{"C_Emp/del", cEmpDef, delOnly, DeletionsFrom("Sale", "Emp")},
		}
		for _, tc := range cases {
			sym, err := Derive(tc.name, tc.def, tc.shape, sc.DB)
			if err != nil {
				t.Fatal(err)
			}
			symDelta, err := EvalMaintenance(sym, st, tc.u, sc.DB)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			old, err := algebra.EvalCtx(nil, tc.def, st)
			if err != nil {
				t.Fatal(err)
			}
			gotNew := old.Clone()
			symDelta.ApplyTo(gotNew)

			post := st.Clone()
			if err := tc.u.Apply(post); err != nil {
				t.Fatal(err)
			}
			want, err := algebra.EvalCtx(nil, tc.def, post)
			if err != nil {
				t.Fatal(err)
			}
			if !gotNew.Equal(want) {
				t.Errorf("round %d %s: symbolic maintenance wrong:\nIns: %s\nDel: %s\ngot  %v\nwant %v",
					round, tc.name, sym.Ins, sym.Del, gotNew, want)
			}
		}
	}
}

// TestSymbolicWarehouseOnlyEvaluation evaluates the warehouse-translated
// maintenance program against the warehouse state (plus deltas) and checks
// it reproduces W(d') — a full end-to-end of Example 4.1's pipeline.
func TestSymbolicWarehouseOnlyEvaluation(t *testing.T) {
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	st := workload.Figure1State(sc.DB)
	ws, err := comp.MaterializeWarehouseCtx(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
		relation.String_("Computer"), relation.String_("Paula"))
	shape := InsertionsInto("Sale")

	post := st.Clone()
	if err := u.Apply(post); err != nil {
		t.Fatal(err)
	}
	wantWs, err := comp.MaterializeWarehouseCtx(nil, post)
	if err != nil {
		t.Fatal(err)
	}

	targets := map[string]algebra.Expr{"Sold": sc.Views.Views()[0].Expr()}
	for _, e := range comp.StoredEntries() {
		targets[e.Name] = e.Def
	}
	for name, def := range targets {
		sym, err := Derive(name, def, shape, sc.DB)
		if err != nil {
			t.Fatal(err)
		}
		wsym := TranslateToWarehouse(sym, comp)
		// Evaluate against the warehouse state only.
		d, err := EvalMaintenance(wsym, algebra.MapState(ws), u, sc.DB)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := ws[name].Clone()
		d.ApplyTo(got)
		if !got.Equal(wantWs[name]) {
			t.Errorf("%s: warehouse-only symbolic maintenance wrong:\nIns: %s\nDel: %s\ngot  %v\nwant %v",
				name, wsym.Ins, wsym.Del, got, wantWs[name])
		}
	}
}

func TestDeriveInvalidExpression(t *testing.T) {
	sc := workload.Figure1(false)
	if _, err := Derive("X", algebra.NewBase("Nope"), InsertionsInto("Sale"), sc.DB); err == nil {
		t.Error("invalid expression accepted")
	}
}

func mustEntry(t *testing.T, comp *core.Complement, base string) *core.Entry {
	t.Helper()
	e, ok := comp.Entry(base)
	if !ok {
		t.Fatalf("no entry for %s", base)
	}
	return e
}

// TestSymbolicAllOperators derives maintenance programs for expressions
// covering every algebra node — union, difference, rename, empty — and
// cross-checks each against recomputation on random data.
func TestSymbolicAllOperators(t *testing.T) {
	sc := workload.Figure1(false)
	exprs := []algebra.Expr{
		algebra.NewUnion(
			algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
			algebra.NewProject(algebra.NewBase("Emp"), "clerk")),
		algebra.NewDiff(
			algebra.NewProject(algebra.NewBase("Emp"), "clerk"),
			algebra.NewProject(algebra.NewBase("Sale"), "clerk")),
		algebra.NewRename(
			algebra.NewSelect(algebra.NewBase("Emp"), algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(21))),
			map[string]string{"clerk": "person"}),
		algebra.NewUnion(
			algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "clerk"),
			algebra.NewProject(algebra.NewEmpty("clerk", "x"), "clerk")),
	}
	shapes := []Shape{
		InsertionsInto("Sale", "Emp"),
		DeletionsFrom("Sale", "Emp"),
	}
	gen := workload.NewGen(sc.DB, 88)
	for round := 0; round < 10; round++ {
		st := gen.State(8)
		for si, shape := range shapes {
			var u *catalog.Update
			if si == 0 {
				u = gen.Update(st, 4, 0)
			} else {
				u = gen.Update(st, 0, 4)
			}
			post := st.Clone()
			if err := u.Apply(post); err != nil {
				t.Fatal(err)
			}
			for _, e := range exprs {
				m, err := Derive("T", e, shape, sc.DB)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				d, err := EvalMaintenance(m, st, u, sc.DB)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				old, err := algebra.EvalCtx(nil, e, st)
				if err != nil {
					t.Fatal(err)
				}
				got := old.Clone()
				d.ApplyTo(got)
				want, err := algebra.EvalCtx(nil, e, post)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("round %d shape %d: symbolic maintenance of %s wrong:\nIns %s\nDel %s\ngot  %v\nwant %v",
						round, si, e, m.Ins, m.Del, got, want)
				}
			}
		}
	}
}
