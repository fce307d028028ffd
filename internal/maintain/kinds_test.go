package maintain

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// exprKinds lists the operator kinds of algebra.Expr. The type switches
// of this package that dispatch over Expr (intern, derive, symbolic)
// handle each of them and panic on any other; TestKindsDispatch runs one
// expression holding all of them through each, so a kind a dispatcher
// misses fails it.
var exprKinds = []string{"Base", "Diff", "Empty", "Join", "Project", "Rename", "Select", "Union"}

// allKinds is one valid expression over Figure 1's schema containing
// every kind of exprKinds: ρ{clerk→person}(π{item,clerk}(σ{age>20}(Sale ⋈
// Emp)) ∪ (Sale ∖ ∅{item,clerk})).
func allKinds() algebra.Expr {
	sold := algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp"))
	return algebra.NewRename(algebra.NewUnion(
		algebra.NewProject(algebra.NewSelect(sold, algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(20))), "item", "clerk"),
		algebra.NewDiff(algebra.NewBase("Sale"), algebra.NewEmpty("item", "clerk")),
	), map[string]string{"clerk": "person"})
}

// kindOf names e's operator kind: "Base" for an *algebra.Base.
func kindOf(e algebra.Expr) string {
	s := fmt.Sprintf("%T", e)
	return s[strings.LastIndexByte(s, '.')+1:]
}

// TestKindsSealed: exprKinds is exactly the set of types the algebra
// seals into Expr with an isExpr method, so a ninth kind fails this test
// until it is listed — and then TestKindsDispatch until this package's
// dispatchers handle it.
func TestKindsSealed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "algebra", "expr.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sealed []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "isExpr" {
			continue
		}
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		sealed = append(sealed, recv.(*ast.Ident).Name)
	}
	sort.Strings(sealed)
	if !slices.Equal(sealed, exprKinds) {
		t.Fatalf("isExpr receivers in algebra/expr.go = %v, exprKinds = %v", sealed, exprKinds)
	}
}

// TestKindsDispatch runs allKinds through the dispatchers of this
// package: intern (NewMaintainer's preparation), derive (Propagate and
// RefreshContext) and symbolic (Derive), checking each result against
// recomputation.
func TestKindsDispatch(t *testing.T) {
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	e := allKinds()

	var kinds []string
	algebra.Walk(e, func(n algebra.Expr) {
		if k := kindOf(n); !slices.Contains(kinds, k) {
			kinds = append(kinds, k)
		}
	})
	sort.Strings(kinds)
	if !slices.Equal(kinds, exprKinds) {
		t.Fatalf("allKinds holds %v, want every kind %v", kinds, exprKinds)
	}

	// intern: a second copy of the tree is the first tree's node.
	var seen []algebra.Expr
	first := intern(algebra.Clone(e), &seen)
	if again := intern(algebra.Clone(e), &seen); again != first {
		t.Errorf("interning an equal tree twice gave two nodes")
	}
	if n := algebra.Size(e); len(seen) > n {
		t.Errorf("interned %d nodes of a %d-node tree", len(seen), n)
	}

	ins := catalog.NewUpdate().
		MustInsert("Sale", sc.DB, relation.String_("Computer"), relation.String_("Paula")).
		MustInsert("Emp", sc.DB, relation.String_("Zoe"), relation.Int(19))
	del := catalog.NewUpdate().
		MustDelete("Sale", sc.DB, relation.String_("VCR"), relation.String_("Mary")).
		MustDelete("Emp", sc.DB, relation.String_("John"), relation.Int(25))
	u := catalog.NewUpdate().
		MustInsert("Sale", sc.DB, relation.String_("Computer"), relation.String_("Paula")).
		MustInsert("Emp", sc.DB, relation.String_("Zoe"), relation.Int(19)).
		MustDelete("Sale", sc.DB, relation.String_("VCR"), relation.String_("Mary")).
		MustDelete("Emp", sc.DB, relation.String_("John"), relation.Int(25))
	checkDelta(t, e, st, u)

	old := mustEval(t, e, st)
	for _, c := range []struct {
		shape Shape
		u     *catalog.Update
	}{{InsertionsInto("Sale", "Emp"), ins}, {DeletionsFrom("Sale", "Emp"), del}} {
		m, err := Derive("T", e, c.shape, sc.DB)
		if err != nil {
			t.Fatal(err)
		}
		d, err := EvalMaintenance(m, st, c.u, sc.DB)
		if err != nil {
			t.Fatal(err)
		}
		got := old.Clone()
		d.ApplyTo(got)
		post := st.Clone()
		if err := c.u.Apply(post); err != nil {
			t.Fatal(err)
		}
		if want := mustEval(t, e, post); got.Equal(old) || !got.Equal(want) {
			t.Errorf("symbolic maintenance under %s: got %v, want %v (changed from %v)", c.u, got, want, old)
		}
	}

	// RefreshContext on a warehouse: the derive path over W⁻¹.
	w, comp := buildWarehouse(t, sc, core.Proposition22(), st)
	if _, err := NewMaintainer(comp).RefreshContext(context.Background(), w, u); err != nil {
		t.Fatal(err)
	}
	assertTheorem41(t, w, comp, st, u)
}
