package algebra

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dwcomplement/internal/relation"
)

// sumTree folds a plan tree's per-node counters into one OpStat.
func sumTree(n *PlanNode, acc *OpStat) {
	if n == nil {
		return
	}
	acc.Scanned += n.Scanned
	acc.Probed += n.Probed
	acc.Emitted += n.Emitted
	acc.IndexHits += n.IndexHits
	acc.IndexBuilds += n.IndexBuilds
	for _, c := range n.Children {
		sumTree(c, acc)
	}
}

// TestPlanTreeMatchesFlatTotals is the core consistency contract of the
// instrumentation: the per-node counters of the recorded plan trees sum
// to the flat EvalStats totals, for both the full and restricted paths.
func TestPlanTreeMatchesFlatTotals(t *testing.T) {
	st := figure1State()
	q := NewProject(NewSelect(soldExpr(), AttrCmpConst("age", OpLt, relation.Int(30))), "clerk")

	ec := NewEvalContext(nil)
	if _, err := EvalCtx(ec, q, st); err != nil {
		t.Fatal(err)
	}
	probe := relation.New("clerk")
	probe.InsertValues(relation.String_("Mary"))
	if _, err := EvalRestricted(ec, NewProject(NewBase("Emp"), "clerk"), st, probe); err != nil {
		t.Fatal(err)
	}

	s := ec.Stats()
	if len(s.Plan) != 2 {
		t.Fatalf("got %d plan roots, want 2", len(s.Plan))
	}
	if s.PlanTruncated {
		t.Error("plan unexpectedly truncated")
	}
	var tree OpStat
	for _, root := range s.Plan {
		sumTree(root, &tree)
	}
	if tree.Scanned != s.Scanned || tree.Probed != s.Probed ||
		tree.Emitted != s.Emitted || tree.IndexHits != s.IndexHits ||
		tree.IndexBuilds != s.IndexBuilds {
		t.Errorf("tree sums %+v disagree with flat totals %+v", tree, s)
	}
	// Exclusive times are clamped non-negative and never exceed inclusive.
	var check func(n *PlanNode)
	check = func(n *PlanNode) {
		if n.Exclusive < 0 || n.Exclusive > n.Inclusive {
			t.Errorf("node %s: exclusive %v outside [0, %v]", n.Op, n.Exclusive, n.Inclusive)
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	for _, root := range s.Plan {
		check(root)
	}
}

// TestRestrictedFallbackKeepsTotals: a probe over attributes foreign to
// the expression falls back to full evaluation hanging under the
// restricted node; the totals must still agree with the tree.
func TestRestrictedFallbackKeepsTotals(t *testing.T) {
	st := figure1State()
	probe := relation.New("nosuch")
	probe.InsertValues(relation.String_("x"))
	ec := NewEvalContext(nil)
	out, err := EvalRestricted(ec, NewBase("Emp"), st, probe)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("fallback result has %d rows, want 3", out.Len())
	}
	s := ec.Stats()
	if len(s.Plan) != 1 {
		t.Fatalf("got %d roots, want 1", len(s.Plan))
	}
	root := s.Plan[0]
	if !root.Restricted || len(root.Children) != 1 {
		t.Fatalf("fallback shape wrong: restricted=%v children=%d", root.Restricted, len(root.Children))
	}
	var tree OpStat
	sumTree(root, &tree)
	if tree.Emitted != s.Emitted {
		t.Errorf("tree emitted %d != flat %d", tree.Emitted, s.Emitted)
	}
}

// TestRenameCountsUnderProbe: ρ has one accounting. Under a probe that
// keeps every row the rename node records what the full evaluation's does
// (it used to report emit=0 whatever it produced), and the tree still sums
// to the flat totals.
func TestRenameCountsUnderProbe(t *testing.T) {
	st := figure1State()
	q := NewRename(NewBase("Emp"), map[string]string{"clerk": "person"})
	probe := relation.New("person")
	for _, c := range []string{"Mary", "John", "Paula"} {
		probe.InsertValues(relation.String_(c))
	}
	roots := map[bool]*PlanNode{}
	for _, restricted := range []bool{false, true} {
		ec := NewEvalContext(nil)
		var err error
		if restricted {
			_, err = EvalRestricted(ec, q, st, probe)
		} else {
			_, err = EvalCtx(ec, q, st)
		}
		if err != nil {
			t.Fatal(err)
		}
		s := ec.Stats()
		var tree OpStat
		sumTree(s.Plan[0], &tree)
		if tree.Scanned != s.Scanned || tree.Emitted != s.Emitted {
			t.Errorf("restricted=%v: tree sums %+v disagree with flat totals %+v", restricted, tree, s)
		}
		roots[restricted] = s.Plan[0]
	}
	full, under := roots[false], roots[true]
	if !under.Restricted || full.Emitted != 3 || under.Emitted != full.Emitted || under.Scanned != full.Scanned {
		t.Errorf("rename node: full emitted/scanned %d/%d, under a probe %d/%d (restricted=%v)",
			full.Emitted, full.Scanned, under.Emitted, under.Scanned, under.Restricted)
	}
}

// TestRenderPlanGolden locks the text rendering of an executed plan on
// the paper's Figure 1 state. Timing is off, so the output is
// deterministic.
func TestRenderPlanGolden(t *testing.T) {
	st := figure1State()
	q := NewProject(soldExpr(), "clerk")
	ec := NewEvalContext(nil)
	if _, err := EvalCtx(ec, q, st); err != nil {
		t.Fatal(err)
	}
	got := RenderPlan(ec.Stats().Plan, false)
	want := strings.Join([]string{
		"project  rows=2 scanned=3 probed=0 hits=0 builds=0",
		"└── join(2)  rows=3 scanned=3 probed=3 hits=3 builds=1",
		"    ├── base(Sale)  rows=3 scanned=0 probed=0 hits=0 builds=0",
		"    └── base(Emp)  rows=3 scanned=0 probed=0 hits=0 builds=0",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("rendered plan:\n%s\nwant:\n%s", got, want)
	}
}

// TestExprTreeGolden locks the static EXPLAIN rendering.
func TestExprTreeGolden(t *testing.T) {
	q := NewUnion(NewProject(NewBase("Sale"), "clerk"), NewProject(NewBase("Emp"), "clerk"))
	got := ExprTree(q)
	want := strings.Join([]string{
		"∪",
		"├── π{clerk}",
		"│   └── Sale",
		"└── π{clerk}",
		"    └── Emp",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("expr tree:\n%s\nwant:\n%s", got, want)
	}
}

// TestEvalStatsAddMergesOps: cumulative Add folds per-node traces into a
// per-operator-kind breakdown and drops plan trees.
func TestEvalStatsAddMergesOps(t *testing.T) {
	var total EvalStats
	total.Plan = []*PlanNode{{Op: "stale"}}
	a := EvalStats{
		Emitted: 2,
		Ops:     []OpStat{{Op: "join(2)", Emitted: 2}, {Op: "base(Sale)", Emitted: 3}},
		Plan:    []*PlanNode{{Op: "join(2)"}},
	}
	b := EvalStats{
		Emitted: 5,
		Ops:     []OpStat{{Op: "join(2)", Emitted: 5, Scanned: 1}},
	}
	total.Add(a)
	total.Add(b)
	if total.Emitted != 7 {
		t.Errorf("emitted = %d, want 7", total.Emitted)
	}
	if total.Plan != nil || total.PlanTruncated {
		t.Error("cumulative stats must not carry a plan tree")
	}
	want := []OpStat{
		{Op: "base(Sale)", Emitted: 3},
		{Op: "join(2)", Emitted: 7, Scanned: 1},
	}
	if len(total.Ops) != len(want) {
		t.Fatalf("ops = %+v, want %+v", total.Ops, want)
	}
	for i := range want {
		if total.Ops[i] != want[i] {
			t.Errorf("ops[%d] = %+v, want %+v", i, total.Ops[i], want[i])
		}
	}
}

// mergeOpsByMap is the reference mergeOps: fold both lists through a map
// keyed by label, then sort by label.
func mergeOpsByMap(a, b []OpStat) []OpStat {
	byOp := map[string]OpStat{}
	for _, o := range slices.Concat(a, b) {
		m := byOp[o.Op]
		m.Op = o.Op
		m.Scanned += o.Scanned
		m.Probed += o.Probed
		m.Emitted += o.Emitted
		m.IndexHits += o.IndexHits
		m.IndexBuilds += o.IndexBuilds
		m.Batches += o.Batches
		m.Wall += o.Wall
		byOp[o.Op] = m
	}
	out := slices.Collect(maps.Values(byOp))
	slices.SortFunc(out, func(x, y OpStat) int { return strings.Compare(x.Op, y.Op) })
	return out
}

// TestMergeOpsMatchesMapAndSort: folding random per-evaluation op lists —
// labels repeated within a list and across lists, in any order — into an
// accumulator gives, after every fold, what the map-and-sort reference
// gives, and never writes the accumulator it was handed.
func TestMergeOpsMatchesMapAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	labels := []string{"base(Sale)", "base(Emp)", "join(2)", "select", "union", "diff⋉", "pi{clerk}", "select⋉"}
	for trial := 0; trial < 200; trial++ {
		var got, want []OpStat
		for fold := 0; fold < 1+rng.Intn(8); fold++ {
			b := make([]OpStat, rng.Intn(12))
			for i := range b {
				n := func() int64 { return rng.Int63n(100) }
				b[i] = OpStat{Op: labels[rng.Intn(len(labels))], Scanned: n(), Probed: n(), Emitted: n(),
					IndexHits: n(), IndexBuilds: n(), Batches: n(), Wall: time.Duration(n())}
			}
			acc, held := got, slices.Clone(got)
			got, want = mergeOps(got, b), mergeOpsByMap(want, b)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d fold %d: mergeOps = %+v, want %+v", trial, fold, got, want)
			}
			if !slices.Equal(acc, held) {
				t.Fatalf("trial %d fold %d: accumulator written in place: %+v, was %+v", trial, fold, acc, held)
			}
		}
	}
}

// TestPlanNodeCap: evaluations past the node cap keep correct flat totals
// and flag the truncation.
func TestPlanNodeCap(t *testing.T) {
	st := figure1State()
	ec := NewEvalContext(nil)
	var q Expr = NewBase("Emp")
	// Build a deep select chain so one evaluation exceeds the node cap.
	for i := 0; i < maxPlanNodes+8; i++ {
		q = NewSelect(q, AttrCmpConst("age", OpGt, relation.Int(0)))
	}
	if _, err := EvalCtx(ec, q, st); err != nil {
		t.Fatal(err)
	}
	s := ec.Stats()
	if !s.PlanTruncated {
		t.Error("deep plan not flagged truncated")
	}
	if s.Emitted == 0 {
		t.Error("flat totals lost past the node cap")
	}
}

// TestPlanSummary: the one-line signature names the operators with their
// emitted cardinalities, honors the byte budget, and reports truncation.
func TestPlanSummary(t *testing.T) {
	st := figure1State()
	ec := NewEvalContext(nil)
	q := NewProject(NewSelect(soldExpr(), AttrCmpConst("age", OpLt, relation.Int(30))), "clerk")
	if _, err := EvalCtx(ec, q, st); err != nil {
		t.Fatal(err)
	}
	s := ec.Stats()
	sum := s.PlanSummary(0)
	if sum == "" {
		t.Fatal("empty summary for instrumented evaluation")
	}
	for _, op := range []string{"project", "select"} {
		if !strings.Contains(sum, op) {
			t.Errorf("summary %q missing operator %q", sum, op)
		}
	}
	if !strings.Contains(sum, "[emit=") {
		t.Errorf("summary %q missing cardinalities", sum)
	}
	if short := s.PlanSummary(10); len(short) > 10+len("…")+len(" (truncated)") {
		t.Errorf("budget 10 produced %d bytes: %q", len(short), short)
	}
	var none EvalStats
	if got := none.PlanSummary(0); got != "" {
		t.Errorf("plan-free stats summarized to %q, want empty", got)
	}
}

// TestScanAfterUpdateDerivesNothing: a σ reads the row pages as they are
// stored, so a scan of a version an update wrote costs what a scan of the
// version before it costs — the same pages walked, and walking them
// allocates the same (the pooled operator state aside, which the race
// detector's pool makes vary), nothing derived per page — and what the
// update paid is the pages it copied, which CopiedBytes names: the
// victim's page and the last one.
func TestScanAfterUpdateDerivesNothing(t *testing.T) {
	r := relation.New("k", "v")
	for i := 0; i < 3*relation.BatchSize+5; i++ {
		r.InsertValues(relation.Int(int64(i)), relation.Int(int64(i%7)))
	}
	q := NewSelect(NewBase("R"), AttrCmpConst("v", OpGt, relation.Int(5)))
	scan := func(r *relation.Relation) (EvalStats, float64) {
		t.Helper()
		ec := NewEvalContext(nil)
		if _, err := EvalCtx(ec, q, MapState{"R": r}); err != nil {
			t.Fatal(err)
		}
		s := ec.Stats()
		if len(s.Plan) != 1 || s.Plan[0].Op != "select" || s.Plan[0].Batches != 4 {
			t.Fatalf("plan = %s, want one select root over 4 pages", RenderPlan(s.Plan, false))
		}
		rows := 0
		allocs := testing.AllocsPerRun(5, func() {
			for b := range r.Batches() {
				rows += b.Len()
			}
		})
		return s, allocs
	}
	before, warm := scan(r)
	next := r.Clone()
	k := int64(relation.BatchSize + 3) // v = 3 and v = 0: the answer stays as it was
	if !next.Delete(relation.Tuple{relation.Int(k), relation.Int(k % 7)}) || !next.InsertValues(relation.Int(-1), relation.Int(0)) {
		t.Fatal("delete + insert on the clone failed")
	}
	copied := next.CopiedBytes()
	after, allocs := scan(next)
	if allocs != warm || after.Emitted != before.Emitted {
		t.Errorf("a scan after an update allocates %v times and emits %d rows, the scan before it %v and %d", allocs, after.Emitted, warm, before.Emitted)
	}
	// The victim's row page (two int columns), the few rows of the last
	// one, their hash pages and the membership table's pages the delete
	// and the insert wrote; the rest is shared.
	if page := int64(8 * relation.BatchSize); copied < 2*page || copied > 10*page || next.CopiedBytes() != copied {
		t.Errorf("the update copied %d bytes, a scan moved it to %d; want a row page with its hashes and a few slot pages, nothing for the scan", copied, next.CopiedBytes())
	}
}
