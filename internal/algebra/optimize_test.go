package algebra

import (
	"math/rand"
	"strings"
	"testing"

	"dwcomplement/internal/relation"
)

func TestOptimizeRules(t *testing.T) {
	res := figure1Resolver()
	maryCond := func() Cond { return AttrEqConst("clerk", relation.String_("Mary")) }
	tests := []struct {
		name string
		in   Expr
		want Expr
	}{
		{
			"select over union",
			NewSelect(NewUnion(NewProject(NewBase("Sale"), "clerk"), NewProject(NewBase("Emp"), "clerk")), maryCond()),
			NewUnion(
				NewProject(NewSelect(NewBase("Sale"), maryCond()), "clerk"),
				NewProject(NewSelect(NewBase("Emp"), maryCond()), "clerk")),
		},
		{
			"select over diff",
			NewSelect(NewDiff(NewProject(NewBase("Sale"), "clerk"), NewProject(NewBase("Emp"), "clerk")), maryCond()),
			NewDiff(
				NewProject(NewSelect(NewBase("Sale"), maryCond()), "clerk"),
				NewProject(NewSelect(NewBase("Emp"), maryCond()), "clerk")),
		},
		{
			"select into join, both sides",
			NewSelect(NewJoin(NewBase("Sale"), NewBase("Emp")), maryCond()),
			NewJoin(NewSelect(NewBase("Sale"), maryCond()), NewSelect(NewBase("Emp"), maryCond())),
		},
		{
			"select into join, one side",
			NewSelect(NewJoin(NewBase("Sale"), NewBase("Emp")), AttrCmpConst("age", OpGt, relation.Int(30))),
			NewJoin(NewBase("Sale"), NewSelect(NewBase("Emp"), AttrCmpConst("age", OpGt, relation.Int(30)))),
		},
		{
			"select through rename",
			NewSelect(NewRename(NewBase("Emp"), map[string]string{"clerk": "person"}),
				AttrEqConst("person", relation.String_("Mary"))),
			NewRename(NewSelect(NewBase("Emp"), maryCond()), map[string]string{"clerk": "person"}),
		},
		{
			// The outer projection becomes the identity once Emp is
			// narrowed to {clerk}, so Simplify removes it entirely.
			"projection narrows join inputs",
			NewProject(NewJoin(NewBase("Sale"), NewBase("Emp")), "item", "clerk"),
			NewJoin(NewBase("Sale"), NewProject(NewBase("Emp"), "clerk")),
		},
		{
			"projection over union distributes",
			NewProject(NewUnion(NewBase("Sale"), NewBase("Sale")), "clerk"),
			NewProject(NewBase("Sale"), "clerk"),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Optimize(tt.in, res)
			if !Equal(got, tt.want) {
				t.Errorf("Optimize(%s)\n got %s\nwant %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestOptimizeGuardsEmptyConvention(t *testing.T) {
	res := figure1Resolver()
	// π_{age}(Sale) is empty by convention; pushing σ into it would build
	// an invalid expression, and collapsing π_clerk(π_{age,...}) would
	// change semantics. Both must be handled.
	e1 := NewSelect(NewProject(NewBase("Sale"), "age"), AttrCmpConst("age", OpGt, relation.Int(1)))
	got := Optimize(e1, res)
	if _, err := Attrs(got, res); err != nil {
		t.Errorf("Optimize produced invalid expression %s: %v", got, err)
	}
	st := figure1State()
	want := mustEval(t, e1, st)
	if !mustEval(t, got, st).Equal(want) {
		t.Errorf("semantics changed: %s vs %s", e1, got)
	}

	e2 := NewProject(NewProject(NewBase("Sale"), "clerk", "age"), "clerk")
	got2 := Optimize(e2, res)
	if !mustEval(t, got2, st).Equal(mustEval(t, e2, st)) {
		t.Errorf("non-genuine projection collapsed: %s → %s", e2, got2)
	}
}

// TestOptimizePreservesSemantics fuzzes random expressions.
func TestOptimizePreservesSemantics(t *testing.T) {
	res := figure1Resolver()
	st := figure1State()
	rng := rand.New(rand.NewSource(4242))
	checked := 0
	for i := 0; i < 400; i++ {
		e := randomExpr(rng, 4)
		if _, err := Attrs(e, res); err != nil {
			continue
		}
		checked++
		want := mustEval(t, e, st)
		opt := Optimize(e, res)
		if _, err := Attrs(opt, res); err != nil {
			t.Fatalf("Optimize produced invalid %s from %s: %v", opt, e, err)
		}
		got := mustEval(t, opt, st)
		if !got.Equal(want) {
			t.Fatalf("Optimize changed semantics of %s:\nopt  %s\ngot  %v\nwant %v", e, opt, got, want)
		}
	}
	if checked < 150 {
		t.Fatalf("only %d expressions validated", checked)
	}
}

// TestOptimizeTranslatedShape checks the rewrite the warehouse relies on:
// a selective query over an inverse expression becomes a selection inside
// the union, next to the complement.
func TestOptimizeTranslatedShape(t *testing.T) {
	res := MapResolver{
		"Sold":  relation.NewAttrSet("item", "clerk", "age"),
		"C_Emp": relation.NewAttrSet("clerk", "age"),
	}
	// σ_{age>30}(C_Emp ∪ π_{clerk,age}(Sold)) — the translated σ(Emp).
	e := NewSelect(
		NewUnion(NewBase("C_Emp"), NewProject(NewBase("Sold"), "clerk", "age")),
		AttrCmpConst("age", OpGt, relation.Int(30)))
	got := Optimize(e, res)
	s := got.String()
	// The selection must have moved inside both union branches.
	if !strings.Contains(s, "σ{age > 30}(C_Emp)") || !strings.Contains(s, "σ{age > 30}(Sold)") {
		t.Errorf("pushdown incomplete: %s", s)
	}
}

func TestOptimizeNilResolver(t *testing.T) {
	e := NewSelect(NewJoin(NewBase("A"), NewBase("B")), AttrEqConst("x", relation.Int(1)))
	got := Optimize(e, nil)
	// Without attribute knowledge the join pushdown stays put; the result
	// must still be structurally valid (a select over the join).
	if _, ok := got.(*Select); !ok {
		t.Errorf("unexpected shape: %s", got)
	}
}
