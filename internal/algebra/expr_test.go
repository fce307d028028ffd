package algebra

import (
	"testing"

	"dwcomplement/internal/relation"
)

// figure1Resolver and figure1State provide the paper's Figure 1 scenario.
func figure1Resolver() MapResolver {
	return MapResolver{
		"Sale": relation.NewAttrSet("item", "clerk"),
		"Emp":  relation.NewAttrSet("clerk", "age"),
	}
}

func figure1State() MapState {
	sale := relation.New("item", "clerk")
	sale.InsertValues(relation.String_("TV set"), relation.String_("Mary"))
	sale.InsertValues(relation.String_("VCR"), relation.String_("Mary"))
	sale.InsertValues(relation.String_("PC"), relation.String_("John"))
	emp := relation.New("clerk", "age")
	emp.InsertValues(relation.String_("Mary"), relation.Int(23))
	emp.InsertValues(relation.String_("John"), relation.Int(25))
	emp.InsertValues(relation.String_("Paula"), relation.Int(32))
	return MapState{"Sale": sale, "Emp": emp}
}

func soldExpr() Expr { return NewJoin(NewBase("Sale"), NewBase("Emp")) }

func TestAttrsInference(t *testing.T) {
	res := figure1Resolver()
	tests := []struct {
		name string
		e    Expr
		want relation.AttrSet
	}{
		{"base", NewBase("Sale"), relation.NewAttrSet("item", "clerk")},
		{"join", soldExpr(), relation.NewAttrSet("item", "clerk", "age")},
		{"project", NewProject(soldExpr(), "clerk", "age"), relation.NewAttrSet("clerk", "age")},
		{"select", NewSelect(NewBase("Emp"), AttrCmpConst("age", OpGt, relation.Int(30))), relation.NewAttrSet("clerk", "age")},
		{"union", NewUnion(NewProject(NewBase("Sale"), "clerk"), NewProject(NewBase("Emp"), "clerk")), relation.NewAttrSet("clerk")},
		{"diff", NewDiff(NewProject(NewBase("Sale"), "clerk"), NewProject(NewBase("Emp"), "clerk")), relation.NewAttrSet("clerk")},
		{"rename", NewRename(NewBase("Emp"), map[string]string{"clerk": "name"}), relation.NewAttrSet("name", "age")},
		{"empty", NewEmpty("x", "y"), relation.NewAttrSet("x", "y")},
		// Paper convention: projection onto non-attributes is legal (empty relation).
		{"project outside", NewProject(NewBase("Sale"), "age"), relation.NewAttrSet("age")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Attrs(tt.e, res)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("Attrs = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAttrsErrors(t *testing.T) {
	res := figure1Resolver()
	bad := []struct {
		name string
		e    Expr
	}{
		{"unknown base", NewBase("Nope")},
		{"union mismatch", NewUnion(NewBase("Sale"), NewBase("Emp"))},
		{"diff mismatch", NewDiff(NewBase("Sale"), NewBase("Emp"))},
		{"cond outside", NewSelect(NewBase("Sale"), AttrCmpConst("age", OpGt, relation.Int(1)))},
		{"rename unknown", NewRename(NewBase("Sale"), map[string]string{"zz": "q"})},
		{"rename dup", NewRename(NewBase("Sale"), map[string]string{"item": "clerk"})},
		{"rename collide", NewRename(NewBase("Sale"), map[string]string{"item": "x", "clerk": "x"})},
		{"project zero", NewProject(NewBase("Sale"))},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Attrs(tt.e, res); err == nil {
				t.Errorf("Attrs accepted invalid expression %s", tt.e)
			}
		})
	}
}

func TestEvalFigure1(t *testing.T) {
	st := figure1State()
	sold := mustEval(t, soldExpr(), st)
	if sold.Len() != 3 {
		t.Fatalf("|Sold| = %d", sold.Len())
	}
	// C1 = Emp ∖ π{clerk,age}(Sold): exactly Paula.
	c1 := mustEval(t, NewDiff(NewBase("Emp"), NewProject(soldExpr(), "clerk", "age")), st)
	if c1.Len() != 1 || !c1.Contains(relation.Tuple{relation.String_("Paula"), relation.Int(32)}) {
		t.Errorf("C1 = %v, want {⟨Paula,32⟩}", c1)
	}
	// C2 = Sale ∖ π{item,clerk}(Sold): empty (every sale clerk is in Emp).
	c2 := mustEval(t, NewDiff(NewBase("Sale"), NewProject(soldExpr(), "item", "clerk")), st)
	if !c2.IsEmpty() {
		t.Errorf("C2 = %v, want empty", c2)
	}
}

func TestEvalExample12Query(t *testing.T) {
	// Q = π_clerk(Sale) ∪ π_clerk(Emp) — all clerks in either relation.
	st := figure1State()
	q := NewUnion(NewProject(NewBase("Sale"), "clerk"), NewProject(NewBase("Emp"), "clerk"))
	got := mustEval(t, q, st)
	want := relation.New("clerk")
	for _, c := range []string{"Mary", "John", "Paula"} {
		want.InsertValues(relation.String_(c))
	}
	if !got.Equal(want) {
		t.Errorf("Q = %v", got)
	}
}

func TestEvalSelectConditions(t *testing.T) {
	st := figure1State()
	tests := []struct {
		name string
		cond Cond
		n    int
	}{
		{"eq const", AttrEqConst("clerk", relation.String_("Mary")), 1},
		{"gt", AttrCmpConst("age", OpGt, relation.Int(24)), 2},
		{"ge", AttrCmpConst("age", OpGe, relation.Int(25)), 2},
		{"lt", AttrCmpConst("age", OpLt, relation.Int(24)), 1},
		{"le", AttrCmpConst("age", OpLe, relation.Int(23)), 1},
		{"ne", AttrCmpConst("clerk", OpNe, relation.String_("Mary")), 2},
		{"and", AndAll(AttrCmpConst("age", OpGt, relation.Int(22)), AttrCmpConst("age", OpLt, relation.Int(30))), 2},
		{"or", &Or{AttrEqConst("clerk", relation.String_("Mary")), AttrEqConst("clerk", relation.String_("Paula"))}, 2},
		{"not", &Not{AttrEqConst("clerk", relation.String_("Mary"))}, 2},
		{"true", True{}, 3},
		{"attr vs attr", AttrCmpAttr("clerk", OpEq, "clerk"), 3},
		{"incomparable kinds", AttrEqConst("clerk", relation.Int(5)), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := mustEval(t, NewSelect(NewBase("Emp"), tt.cond), st)
			if got.Len() != tt.n {
				t.Errorf("|σ| = %d, want %d", got.Len(), tt.n)
			}
		})
	}
}

func TestEvalRename(t *testing.T) {
	st := figure1State()
	r := mustEval(t, NewRename(NewBase("Emp"), map[string]string{"clerk": "person"}), st)
	if !r.AttrSet().Equal(relation.NewAttrSet("person", "age")) {
		t.Errorf("attrs = %v", r.AttrSet())
	}
	if r.Len() != 3 {
		t.Errorf("len = %d", r.Len())
	}
}

func TestEvalErrors(t *testing.T) {
	st := figure1State()
	if _, err := EvalCtx(nil, NewBase("Nope"), st); err == nil {
		t.Error("unknown base must error")
	}
	if _, err := EvalCtx(nil, NewUnion(NewBase("Sale"), NewBase("Emp")), st); err == nil {
		t.Error("mismatched union must error")
	}
}

func TestCondOps(t *testing.T) {
	for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if op.Negate().Negate() != op {
			t.Errorf("double negation of %v", op)
		}
	}
	if OpEq.Negate() != OpNe || OpLt.Negate() != OpGe {
		t.Error("negation table wrong")
	}
}

func TestSubstitute(t *testing.T) {
	// Replacing Emp by its inverse π{clerk,age}(Sold) ∪ C1 — exactly the
	// translation of Section 3.
	inverse := NewUnion(NewProject(NewBase("Sold"), "clerk", "age"), NewBase("C1"))
	q := NewProject(NewSelect(NewBase("Emp"), AttrCmpConst("age", OpLt, relation.Int(30))), "clerk")
	tq := Substitute(q, map[string]Expr{"Emp": inverse})
	if Bases(tq).Has("Emp") {
		t.Error("substitution left Emp behind")
	}
	if !Bases(tq).Has("Sold") || !Bases(tq).Has("C1") {
		t.Errorf("translated bases = %v", Bases(tq))
	}
	// Original must be unchanged (immutability).
	if !Bases(q).Has("Emp") {
		t.Error("substitution mutated the original")
	}
}

func TestSubstituteClones(t *testing.T) {
	repl := NewBase("X")
	e := NewUnion(NewBase("A"), NewBase("A"))
	out := Substitute(e, map[string]Expr{"A": repl})
	u := out.(*Union)
	if u.L == u.R || u.L == Expr(repl) {
		t.Error("substitution must insert clones, not shared nodes")
	}
}

func TestCloneAndEqual(t *testing.T) {
	exprs := []Expr{
		NewBase("R"),
		NewEmpty("a", "b"),
		NewSelect(NewBase("R"), AttrEqConst("a", relation.Int(1))),
		NewProject(NewBase("R"), "a", "b"),
		NewJoin(NewBase("R"), NewBase("S")),
		NewUnion(NewBase("R"), NewBase("S")),
		NewDiff(NewBase("R"), NewBase("S")),
		NewRename(NewBase("R"), map[string]string{"a": "b"}),
	}
	for _, e := range exprs {
		c := Clone(e)
		if !Equal(e, c) {
			t.Errorf("Clone not Equal for %s", e)
		}
	}
	for i, a := range exprs {
		for j, b := range exprs {
			if (i == j) != Equal(a, b) {
				t.Errorf("Equal(%s, %s) = %v", a, b, Equal(a, b))
			}
		}
	}
	// Projection lists compare as sets.
	if !Equal(NewProject(NewBase("R"), "a", "b"), NewProject(NewBase("R"), "b", "a")) {
		t.Error("projection order must not affect Equal")
	}
}

func TestCondEqualAndClone(t *testing.T) {
	conds := []Cond{
		True{},
		AttrEqConst("a", relation.Int(1)),
		AttrCmpConst("a", OpLt, relation.Int(1)),
		AttrCmpAttr("a", OpEq, "b"),
		&And{AttrEqConst("a", relation.Int(1)), True{}},
		&Or{AttrEqConst("a", relation.Int(1)), True{}},
		&Not{True{}},
	}
	for i, a := range conds {
		if !CondEqual(a, CloneCond(a)) {
			t.Errorf("CloneCond not equal for %s", a)
		}
		for j, b := range conds {
			if (i == j) != CondEqual(a, b) {
				t.Errorf("CondEqual(%s,%s) = %v", a, b, CondEqual(a, b))
			}
		}
	}
}

func TestWalkAndBases(t *testing.T) {
	e := NewDiff(
		NewProject(NewJoin(NewBase("A"), NewBase("B")), "x"),
		NewRename(NewSelect(NewBase("C"), True{}), map[string]string{"y": "x"}),
	)
	if got := Bases(e); !got.Equal(relation.NewAttrSet("A", "B", "C")) {
		t.Errorf("Bases = %v", got)
	}
	count := 0
	Walk(e, func(Expr) { count++ })
	if count != 8 {
		t.Errorf("Walk visited %d nodes, want 8", count)
	}
	if Size(e) != 8 {
		t.Errorf("Size = %d", Size(e))
	}
}

func TestPrinting(t *testing.T) {
	tests := []struct {
		e    Expr
		want string
	}{
		{soldExpr(), "Sale ⋈ Emp"},
		{NewProject(soldExpr(), "clerk", "age"), "π{clerk,age}(Sale ⋈ Emp)"},
		{NewSelect(NewBase("Emp"), AttrCmpConst("age", OpGt, relation.Int(30))), "σ{age > 30}(Emp)"},
		{NewUnion(NewBase("A"), NewBase("B")), "A ∪ B"},
		{NewDiff(NewBase("A"), NewJoin(NewBase("B"), NewBase("C"))), "A ∖ (B ⋈ C)"},
		{NewRename(NewBase("A"), map[string]string{"x": "y"}), "ρ{x→y}(A)"},
		{NewEmpty("a", "b"), "∅{a,b}"},
		{NewSelect(NewBase("A"), AndAll(AttrEqConst("x", relation.String_("it's")), AttrCmpAttr("y", OpNe, "z"))), `σ{x = 'it\'s' and y != z}(A)`},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestRenameCondAttrs(t *testing.T) {
	c := &And{AttrCmpAttr("a", OpLt, "b"), AttrEqConst("a", relation.Int(3))}
	r := RenameCondAttrs(c, map[string]string{"a": "x"})
	if !CondAttrs(r).Equal(relation.NewAttrSet("x", "b")) {
		t.Errorf("renamed cond attrs = %v", CondAttrs(r))
	}
	// Original untouched.
	if !CondAttrs(c).Equal(relation.NewAttrSet("a", "b")) {
		t.Error("RenameCondAttrs mutated input")
	}
}

func TestJoinFlattening(t *testing.T) {
	j := NewJoin(NewJoin(NewBase("A"), NewBase("B")), NewBase("C"))
	if jn, ok := j.(*Join); !ok || len(jn.Inputs) != 3 {
		t.Errorf("join not flattened: %s", j)
	}
	if single := NewJoin(NewBase("A")); !Equal(single, NewBase("A")) {
		t.Error("single-input join must collapse")
	}
}

// mustEval evaluates an expression the test has already validated.
func mustEval(t testing.TB, e Expr, st State) *relation.Relation {
	t.Helper()
	r, err := EvalCtx(nil, e, st)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
