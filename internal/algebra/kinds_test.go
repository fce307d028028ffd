package algebra

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sort"
	"strings"
	"testing"

	"dwcomplement/internal/relation"
)

// exprKinds lists the operator kinds of the algebra. Every type switch
// that dispatches over Expr handles each of them and panics on any other;
// TestKindsDispatch runs one expression holding all of them through every
// such switch, so a kind a dispatcher misses fails it.
var exprKinds = []string{"Base", "Diff", "Empty", "Join", "Project", "Rename", "Select", "Union"}

// allKinds is one valid expression over figure1's schema containing every
// kind of exprKinds: ρ{clerk→person}(π{item,clerk}(σ{age>20}(Sale ⋈ Emp))
// ∪ (Sale ∖ ∅{item,clerk})).
func allKinds() Expr {
	return NewRename(NewUnion(
		NewProject(NewSelect(soldExpr(), AttrCmpConst("age", OpGt, relation.Int(20))), "item", "clerk"),
		NewDiff(NewBase("Sale"), NewEmpty("item", "clerk")),
	), map[string]string{"clerk": "person"})
}

// kindOf names e's operator kind: "Base" for a *Base.
func kindOf(e Expr) string {
	s := fmt.Sprintf("%T", e)
	return s[strings.LastIndexByte(s, '.')+1:]
}

// TestKindsSealed: exprKinds is exactly the set of types expr.go seals
// into Expr with an isExpr method, so a ninth kind fails this test until
// it is listed — and then TestKindsDispatch until every dispatcher
// handles it.
func TestKindsSealed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "expr.go", nil, 0)
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
		t.Fatalf("isExpr receivers in expr.go = %v, exprKinds = %v", sealed, exprKinds)
	}
}

// TestKindsDispatch runs allKinds through every dispatcher over Expr:
// Walk, Clone, Equal, Substitute, Attrs, Simplify, Optimize, EvalCtx with
// its plan tree, opName and exprLabel (through ExprTree).
func TestKindsDispatch(t *testing.T) {
	e, res, st := allKinds(), figure1Resolver(), figure1State()

	var kinds []string
	Walk(e, func(n Expr) {
		if k := kindOf(n); !slices.Contains(kinds, k) {
			kinds = append(kinds, k)
		}
	})
	sort.Strings(kinds)
	if !slices.Equal(kinds, exprKinds) {
		t.Fatalf("allKinds holds %v, want every kind %v", kinds, exprKinds)
	}

	c := Clone(e)
	if c == e || !Equal(c, e) || c.String() != e.String() {
		t.Errorf("Clone = %s, want a distinct copy of %s", c, e)
	}
	if s := Substitute(e, map[string]Expr{"Emp": NewBase("Emp")}); !Equal(s, e) {
		t.Errorf("identity Substitute = %s, want %s", s, e)
	}
	narrowed := NewSelect(NewBase("Emp"), AttrCmpConst("age", OpLt, relation.Int(30)))
	if s := Substitute(e, map[string]Expr{"Emp": narrowed}); Equal(s, e) || !strings.Contains(s.String(), narrowed.String()) {
		t.Errorf("Substitute of Emp = %s", s)
	}

	attrs, err := Attrs(e, res)
	if err != nil || !attrs.Equal(relation.NewAttrSet("item", "person")) {
		t.Fatalf("Attrs = %v, %v", attrs, err)
	}

	ec := NewEvalContext(context.Background())
	want, err := EvalCtx(ec, e, st)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 3 {
		t.Errorf("|allKinds| = %d, want 3 (every sale)", want.Len())
	}
	stats := ec.Stats()
	if len(stats.Plan) != 1 {
		t.Fatalf("plan has %d roots, want 1", len(stats.Plan))
	}
	var ops []string
	var collect func(*PlanNode)
	collect = func(n *PlanNode) {
		ops = append(ops, n.Op)
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(stats.Plan[0])
	Walk(e, func(n Expr) {
		if !slices.Contains(ops, opName(n)) {
			t.Errorf("plan tree %v lacks %s's operator %q", ops, kindOf(n), opName(n))
		}
	})

	tree := ExprTree(e)
	Walk(e, func(n Expr) {
		if !strings.Contains(tree, exprLabel(n)) {
			t.Errorf("expression tree lacks %s's label %q:\n%s", kindOf(n), exprLabel(n), tree)
		}
	})

	for name, rewrite := range map[string]func(Expr, Resolver) Expr{"Simplify": Simplify, "Optimize": Optimize} {
		got, err := EvalCtx(nil, rewrite(e, res), st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s changed the value: got %v, want %v", name, got, want)
		}
	}
}
