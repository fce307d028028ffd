package algebra

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"dwcomplement/internal/relation"
)

// twoSiteState is a miniature of the benchmark's warehouse: two fact
// tables of 400 orders each over 40 parts (20 brands), and the part
// dimension. Deterministic, so plans over it are golden-testable.
func twoSiteState() MapState {
	part := relation.New("pkey", "brand")
	for p := 0; p < 40; p++ {
		part.InsertValues(relation.Int(int64(p)), relation.String_("brand-"+string(rune('a'+p/2))))
	}
	st := MapState{"Part": part}
	for s, name := range []string{"Fact1", "Fact2"} {
		f := relation.New("okey", "pkey", "qty")
		for k := 0; k < 400; k++ {
			f.InsertValues(relation.Int(int64(k)), relation.Int(int64((k*7+s)%40)), relation.Int(int64(k%50)))
		}
		st[name] = f
	}
	return st
}

// twoSiteUnion is the shape Theorem 3.1 gives a two-site query after
// Optimize: σ pushed to the dimension, the fact side a union.
func twoSiteUnion() Expr {
	return NewJoin(
		NewUnion(NewBase("Fact1"), NewBase("Fact2")),
		NewSelect(NewBase("Part"), AttrEqConst("brand", relation.String_("brand-c"))))
}

// TestTwoSiteUnionPlanGolden locks what ?explain=2 and dwctl's explain
// analyze show for the two-site union: the σ'd dimension is fetched by a
// one-row constant probe, its two part keys are passed sideways, and the
// 800-row union is never materialized — every fact leaf is an index probe,
// marked ⋉probe[n] with the probe's row count.
func TestTwoSiteUnionPlanGolden(t *testing.T) {
	st := twoSiteState()
	var got string
	for i := 0; i < 2; i++ { // the second run finds the indexes cached
		ec := NewEvalContext(nil)
		out, err := EvalCtx(ec, twoSiteUnion(), st)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 40 {
			t.Fatalf("answer has %d rows, want 40", out.Len())
		}
		got = RenderPlan(ec.Stats().Plan, false)
	}
	want := strings.Join([]string{
		"join(2)  rows=42 scanned=4 probed=2 hits=2 builds=0",
		"├── select  rows=2 scanned=2 probed=0 hits=0 builds=0",
		"│   └── base(Part) ⋉probe[1]  rows=2 scanned=1 probed=1 hits=1 builds=0",
		"└── union ⋉probe[2]  rows=40 scanned=40 probed=0 hits=0 builds=0",
		"    ├── base(Fact1) ⋉probe[2]  rows=20 scanned=2 probed=2 hits=2 builds=0",
		"    └── base(Fact2) ⋉probe[2]  rows=20 scanned=2 probed=2 hits=2 builds=0",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("rendered plan:\n%s\nwant:\n%s", got, want)
	}
}

// TestIndexBuildsCountStoredRelationsOnly: the first evaluation builds
// (and caches) one index per stored leaf it probes; a warm evaluation
// builds none, although its join still hashes one transient input.
func TestIndexBuildsCountStoredRelationsOnly(t *testing.T) {
	st := twoSiteState()
	for i, want := range []int64{3, 0, 0} {
		ec := NewEvalContext(nil)
		if _, err := EvalCtx(ec, twoSiteUnion(), st); err != nil {
			t.Fatal(err)
		}
		if got := ec.Stats().IndexBuilds; got != want {
			t.Errorf("run %d: IndexBuilds = %d, want %d", i, got, want)
		}
	}
	if n := st["Fact1"].IndexCount() + st["Fact2"].IndexCount() + st["Part"].IndexCount(); n != 3 {
		t.Errorf("%d indexes cached on the stored relations, want 3", n)
	}
}

// TestBudgetStopsInsideProbePath: the budget is checked at every operator
// boundary of the restricted subtree EvalCtx enters on its own. Fact1's
// leaf emits 20 rows; with 15 budgeted, the evaluation must stop before
// Fact2's leaf is probed.
func TestBudgetStopsInsideProbePath(t *testing.T) {
	st := twoSiteState()
	if _, err := EvalCtx(nil, twoSiteUnion(), st); err != nil { // warm the indexes
		t.Fatal(err)
	}
	ec := NewEvalContext(WithBudget(context.Background(), Budget{Emitted: 15}))
	_, err := EvalCtx(ec, twoSiteUnion(), st)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if s := ec.Stats(); s.Probed != 3 { // Part's constant probe + two part keys into Fact1
		t.Errorf("probed %d keys before stopping, want 3 (Fact2 never reached)", s.Probed)
	}
	// Scanned is bounded too: the whole probe-driven plan reads 4+2+1+2+2+40 rows.
	ec = NewEvalContext(WithBudget(context.Background(), Budget{Scanned: 20}))
	if _, err := EvalCtx(ec, twoSiteUnion(), st); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("scan budget: err = %v, want ErrBudgetExceeded", err)
	}
	ec = NewEvalContext(WithBudget(context.Background(), Budget{Scanned: 100, Emitted: 200}))
	if _, err := EvalCtx(ec, twoSiteUnion(), st); err != nil {
		t.Fatalf("a budget an eighth of the stored rows must suffice on the probe path: %v", err)
	}
}

// TestCancellationOnProbePath: a canceled context stops a constant-probe
// selection and a sideways-passing join before their first restricted
// operator, and EvalRestricted likewise.
func TestCancellationOnProbePath(t *testing.T) {
	st := twoSiteState()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	point := NewSelect(NewBase("Fact1"), AttrEqConst("okey", relation.Int(7)))
	for _, e := range []Expr{point, twoSiteUnion()} {
		ec := NewEvalContext(ctx)
		if _, err := EvalCtx(ec, e, st); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e, err)
		}
		if s := ec.Stats(); s.Probed != 0 || s.Scanned != 0 {
			t.Errorf("%s: canceled evaluation still did work: %+v", e, s)
		}
	}
	probe := relation.New("pkey")
	probe.InsertValues(relation.Int(3))
	if _, err := EvalRestricted(NewEvalContext(ctx), twoSiteUnion(), st, probe); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalRestricted: err = %v, want context.Canceled", err)
	}
}

// TestConstBindings pins which conjuncts become a constant probe: only
// top-level attr = const (either side) with a bool, int or string
// constant over an attribute of the input.
func TestConstBindings(t *testing.T) {
	in := relation.NewAttrSet("okey", "qty", "name", "ok")
	eq := func(attr string, v relation.Value) Cond { return AttrEqConst(attr, v) }
	tests := []struct {
		name string
		c    Cond
		want string
	}{
		{"int", eq("okey", relation.Int(5)), "okey"},
		{"const on the left", &Cmp{Left: ConstOperand(relation.String_("x")), Op: OpEq, Right: AttrOperand("name")}, "name"},
		{"bool", eq("ok", relation.Bool(true)), "ok"},
		{"conjunction", AndAll(eq("qty", relation.Int(1)), AttrCmpConst("okey", OpGt, relation.Int(3)), eq("name", relation.String_("n"))), "qty,name"},
		{"first binding of an attribute wins", AndAll(eq("qty", relation.Int(1)), eq("qty", relation.Int(2))), "qty"},
		{"float constant stays with σ", eq("qty", relation.Float(5)), ""},
		{"NaN stays with σ", eq("qty", relation.Float(math.NaN())), ""},
		{"NULL stays with σ", eq("qty", relation.Null()), ""},
		{"attr = attr stays with σ", AttrCmpAttr("okey", OpEq, "qty"), ""},
		{"inequality", AttrCmpConst("okey", OpLe, relation.Int(5)), ""},
		{"under or", &Or{L: eq("okey", relation.Int(5)), R: eq("qty", relation.Int(1))}, ""},
		{"under not", &Not{C: eq("okey", relation.Int(5))}, ""},
		{"foreign attribute", eq("nosuch", relation.Int(5)), ""},
	}
	for _, tt := range tests {
		attrs, vals := constBindings(tt.c, in)
		if got := strings.Join(attrs, ","); got != tt.want || len(vals) != len(attrs) {
			t.Errorf("%s: bound %q (%d values), want %q", tt.name, got, len(vals), tt.want)
		}
	}
}

// TestConstantsTheProbeSkipsStillSelect: the σ path keeps the semantics
// the probe does not take over — a float constant matches an int column
// numerically, NULL = NULL holds, NaN equals only NaN — and answers the
// same whether or not another conjunct was probed.
func TestConstantsTheProbeSkipsStillSelect(t *testing.T) {
	r := relation.New("k", "v")
	for i := 0; i < 64; i++ {
		r.InsertValues(relation.Int(int64(i)), relation.Int(int64(i%4)))
	}
	r.InsertValues(relation.Int(100), relation.Null())
	r.InsertValues(relation.Int(101), relation.Float(math.NaN()))
	r.InsertValues(relation.Int(102), relation.Float(2))
	st := MapState{"R": r}
	count := func(c Cond) int {
		t.Helper()
		out, err := EvalCtx(nil, NewSelect(NewBase("R"), c), st)
		if err != nil {
			t.Fatal(err)
		}
		return out.Len()
	}
	for _, tt := range []struct {
		name string
		c    Cond
		want int
	}{
		{"v = 2.0 matches int and float 2", AttrEqConst("v", relation.Float(2)), 17},
		{"v = 2 probed, still matches float 2", AttrEqConst("v", relation.Int(2)), 17},
		{"v = NULL", AttrEqConst("v", relation.Null()), 1},
		{"v = NaN", AttrEqConst("v", relation.Float(math.NaN())), 1},
		{"v < 1 puts NaN below every number", AttrCmpConst("v", OpLt, relation.Int(1)), 17},
		{"probed k with unprobed v", AndAll(AttrEqConst("k", relation.Int(102)), AttrEqConst("v", relation.Float(2))), 1},
		{"probed k contradicting v", AndAll(AttrEqConst("k", relation.Int(101)), AttrEqConst("v", relation.Int(2))), 0},
	} {
		if got := count(tt.c); got != tt.want {
			t.Errorf("%s: %d rows, want %d", tt.name, got, tt.want)
		}
	}
}
