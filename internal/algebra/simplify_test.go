package algebra

import (
	"math/rand"
	"testing"

	"dwcomplement/internal/relation"
)

func TestSimplifyRules(t *testing.T) {
	res := figure1Resolver()
	tests := []struct {
		name string
		in   Expr
		want Expr
	}{
		{"select true", NewSelect(NewBase("Sale"), True{}), NewBase("Sale")},
		{"select over empty", NewSelect(NewEmpty("a"), AttrEqConst("a", relation.Int(1))), NewEmpty("a")},
		{
			"nested select",
			NewSelect(NewSelect(NewBase("Emp"), AttrCmpConst("age", OpGt, relation.Int(1))), AttrCmpConst("age", OpLt, relation.Int(9))),
			NewSelect(NewBase("Emp"), AndAll(AttrCmpConst("age", OpGt, relation.Int(1)), AttrCmpConst("age", OpLt, relation.Int(9)))),
		},
		{
			"project project",
			NewProject(NewProject(NewBase("Emp"), "clerk", "age"), "clerk"),
			NewProject(NewBase("Emp"), "clerk"),
		},
		{
			"project project outside",
			NewProject(NewProject(NewBase("Emp"), "clerk"), "age"),
			NewEmpty("age"),
		},
		{"identity project", NewProject(NewBase("Emp"), "age", "clerk"), NewBase("Emp")},
		{"project over empty", NewProject(NewEmpty("a", "b"), "a"), NewEmpty("a")},
		{"union empty right", NewUnion(NewBase("Sale"), NewEmpty("item", "clerk")), NewBase("Sale")},
		{"union empty left", NewUnion(NewEmpty("item", "clerk"), NewBase("Sale")), NewBase("Sale")},
		{"union same", NewUnion(NewBase("Sale"), NewBase("Sale")), NewBase("Sale")},
		{"diff empty right", NewDiff(NewBase("Sale"), NewEmpty("item", "clerk")), NewBase("Sale")},
		{"diff empty left", NewDiff(NewEmpty("item", "clerk"), NewBase("Sale")), NewEmpty("item", "clerk")},
		{"diff same", NewDiff(NewBase("Sale"), NewBase("Sale")), NewEmpty("item", "clerk")},
		{"join with empty", NewJoin(NewBase("Sale"), NewEmpty("clerk", "age")), NewEmpty("item", "clerk", "age")},
		{"rename identity", NewRename(NewBase("Sale"), map[string]string{"item": "item"}), NewBase("Sale")},
		{"rename over empty", NewRename(NewEmpty("a", "b"), map[string]string{"a": "x"}), NewEmpty("x", "b")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Simplify(tt.in, res)
			if !Equal(got, tt.want) {
				t.Errorf("Simplify(%s) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestSimplifyNoResolver(t *testing.T) {
	// Resolver-dependent rules are skipped gracefully with res == nil.
	e := NewProject(NewBase("Emp"), "age", "clerk")
	got := Simplify(e, nil)
	if !Equal(got, e) {
		t.Errorf("Simplify without resolver changed %s to %s", e, got)
	}
}

// randomExpr builds a random valid expression over Figure 1's schemas.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			return NewBase("Sale")
		}
		return NewBase("Emp")
	}
	switch rng.Intn(6) {
	case 0:
		in := randomExpr(rng, depth-1)
		return NewSelect(in, randomCondFor(rng))
	case 1:
		in := randomExpr(rng, depth-1)
		return NewProject(in, randomAttrList(rng)...)
	case 2:
		return NewJoin(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 3:
		in := randomExpr(rng, depth-1)
		return NewUnion(NewProject(in, "clerk"), NewProject(randomExpr(rng, depth-1), "clerk"))
	case 4:
		in := randomExpr(rng, depth-1)
		return NewDiff(NewProject(in, "clerk"), NewProject(randomExpr(rng, depth-1), "clerk"))
	default:
		return NewSelect(randomExpr(rng, depth-1), True{})
	}
}

func randomCondFor(rng *rand.Rand) Cond {
	switch rng.Intn(3) {
	case 0:
		return True{}
	case 1:
		return AttrEqConst("clerk", relation.String_([]string{"Mary", "John", "Paula"}[rng.Intn(3)]))
	default:
		return &Not{AttrEqConst("clerk", relation.String_("Mary"))}
	}
}

func randomAttrList(rng *rand.Rand) []string {
	all := []string{"item", "clerk", "age"}
	out := []string{"clerk"}
	for _, a := range all {
		if a != "clerk" && rng.Intn(2) == 0 {
			out = append(out, a)
		}
	}
	return out
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	// Property: for random expressions that validate, Simplify preserves
	// the evaluation result. Conditions are restricted to attributes that
	// survive the random projections ("clerk" is always kept).
	res := figure1Resolver()
	st := figure1State()
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for i := 0; i < 300; i++ {
		e := randomExpr(rng, 3)
		if _, err := Attrs(e, res); err != nil {
			continue // random tree invalid (e.g. cond after projection); skip
		}
		checked++
		want := mustEval(t, e, st)
		got := mustEval(t, Simplify(e, res), st)
		if !got.Equal(want) {
			t.Fatalf("Simplify changed semantics of %s:\ngot  %v\nwant %v", e, got, want)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d random expressions validated; generator too weak", checked)
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	res := figure1Resolver()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		e := randomExpr(rng, 3)
		if _, err := Attrs(e, res); err != nil {
			continue
		}
		s1 := Simplify(e, res)
		s2 := Simplify(s1, res)
		if !Equal(s1, s2) {
			t.Fatalf("Simplify not idempotent on %s:\n1: %s\n2: %s", e, s1, s2)
		}
	}
}
