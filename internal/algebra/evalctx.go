package algebra

// This file holds the evaluation contexts: cancellation and per-operator
// instrumentation for the evaluation engine. Every query the warehouse
// answers and every refresh the maintainer runs is a composition of
// relational operators over V ∪ C (Theorems 3.1 and 4.1), so this is
// where the system's hot path is observed and where long evaluations get
// aborted. Instrumented evaluations record two synchronized views of the
// same counters: flat EvalStats totals (cheap to aggregate across
// requests) and a per-node PlanNode tree (the EXPLAIN ANALYZE view).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/relation"
)

// ErrUnknownRelation is wrapped by EvalCtx and Attrs when an expression
// references a name the state or resolver does not know, so callers can
// detect the condition with errors.Is.
var ErrUnknownRelation = errors.New("unknown relation")

// OpStat is the per-operator-node record of one evaluation: the physical
// counters of that node plus its wall time (inclusive of children, since
// an operator's cost includes producing its inputs).
type OpStat struct {
	Op          string        `json:"op"`
	Scanned     int64         `json:"scanned"`
	Probed      int64         `json:"probed"`
	Emitted     int64         `json:"emitted"`
	IndexHits   int64         `json:"indexHits"`
	IndexBuilds int64         `json:"indexBuilds"`
	Batches     int64         `json:"batches,omitempty"`
	Wall        time.Duration `json:"wallNs"`
}

// EvalStats aggregates the counters of an evaluation (or several — the
// maintainer reuses one context across all refresh targets). Totals sum
// the per-node counters; Wall is the caller-measured end-to-end time, not
// the sum of node times (those nest). Plan holds one executed plan tree
// per top-level evaluation; the per-node Emitted/Scanned/... values of
// each tree sum to the flat totals (unless PlanTruncated reports that the
// node caps were hit).
type EvalStats struct {
	Scanned       int64         `json:"scanned"`
	Probed        int64         `json:"probed"`
	Emitted       int64         `json:"emitted"`
	IndexHits     int64         `json:"indexHits"`
	IndexBuilds   int64         `json:"indexBuilds"`
	Batches       int64         `json:"batches,omitempty"`
	Wall          time.Duration `json:"wallNs"`
	Ops           []OpStat      `json:"ops,omitempty"`
	Plan          []*PlanNode   `json:"plan,omitempty"`
	PlanTruncated bool          `json:"planTruncated,omitempty"`
}

// Add accumulates o into s; servers use it to keep cumulative counters
// across requests. Per-node Ops records are merged by operator label into
// a per-operator-kind breakdown (sorted by label), so cumulative stats
// stay bounded and meaningful instead of silently dropping the slice.
// Plan trees are not accumulated — a sum of plans is meaningless — so
// cumulative stats never carry a stale tree.
func (s *EvalStats) Add(o EvalStats) {
	s.Scanned += o.Scanned
	s.Probed += o.Probed
	s.Emitted += o.Emitted
	s.IndexHits += o.IndexHits
	s.IndexBuilds += o.IndexBuilds
	s.Batches += o.Batches
	s.Wall += o.Wall
	if len(o.Ops) > 0 {
		s.Ops = mergeOps(s.Ops, o.Ops)
	}
	s.Plan = nil
	s.PlanTruncated = false
}

// mergeOps folds the per-node records b into a — an earlier mergeOps
// result: one record per operator label, sorted by label — summing
// counters and (inclusive) wall time into a new slice, so a copy of the
// accumulator still held elsewhere is never written. Each record finds its
// label by binary search; a label not seen before is inserted in order,
// which past the first few calls is rare. No map, no sort.
func mergeOps(a, b []OpStat) []OpStat {
	out := slices.Clone(a)
	for _, o := range b {
		i, found := slices.BinarySearchFunc(out, o.Op, func(m OpStat, op string) int { return strings.Compare(m.Op, op) })
		if !found {
			out = slices.Insert(out, i, OpStat{Op: o.Op})
		}
		m := &out[i]
		m.Scanned += o.Scanned
		m.Probed += o.Probed
		m.Emitted += o.Emitted
		m.IndexHits += o.IndexHits
		m.IndexBuilds += o.IndexBuilds
		m.Batches += o.Batches
		m.Wall += o.Wall
	}
	return out
}

// maxOpRecords bounds the per-node trace kept by a context; totals keep
// accumulating past the cap, so pathological plans degrade to aggregate
// counters instead of unbounded memory.
const maxOpRecords = 512

// maxPlanNodes and maxPlanRoots bound the plan trees kept by a context.
// Past the caps, counters still reach the flat totals but no further
// nodes are allocated, and the stats are flagged PlanTruncated.
const (
	maxPlanNodes = 4096
	maxPlanRoots = 64
)

// EvalContext carries a context.Context and an EvalStats accumulator
// through an evaluation. A nil *EvalContext is valid everywhere and means
// "no cancellation, no counting", so un-instrumented callers pay nothing.
// The context is safe for concurrent use.
type EvalContext struct {
	ctx        context.Context
	budget     Budget      // set once at construction, read-only after
	overBudget atomic.Bool // latched by checkBudgetLocked, read by Err
	mu         lockrank.Mutex[lockrank.EvalContext]
	stats      EvalStats
	roots      []*PlanNode
	planNodes  int
	truncated  bool
	budgetErr  error // the violation detail, written under mu
}

// NewEvalContext returns an evaluation context carrying ctx (nil means
// context.Background()). A Budget attached to ctx via WithBudget is
// enforced on the accumulated totals at every operator boundary.
func NewEvalContext(ctx context.Context) *EvalContext {
	if ctx == nil {
		ctx = context.Background()
	}
	ec := &EvalContext{ctx: ctx}
	if b, ok := BudgetFromContext(ctx); ok {
		ec.budget = b
	}
	return ec
}

// Context returns the carried context; the nil EvalContext carries
// context.Background().
func (ec *EvalContext) Context() context.Context {
	if ec == nil || ec.ctx == nil {
		return context.Background()
	}
	return ec.ctx
}

// Err returns nil while the evaluation may continue, and the carried
// context's error wrapped for callers once it is canceled or timed out,
// or the budget violation once the context's Budget is exhausted.
// errors.Is(err, context.Canceled / context.DeadlineExceeded /
// ErrBudgetExceeded) works on the result.
func (ec *EvalContext) Err() error {
	if ec == nil {
		return nil
	}
	if err := ec.budgetError(); err != nil {
		return err
	}
	if ec.ctx == nil {
		return nil
	}
	if err := ec.ctx.Err(); err != nil {
		return fmt.Errorf("algebra: evaluation canceled: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the accumulated counters, including the
// executed plan trees recorded so far. Ops, Plan and the plan nodes are
// shared with the context (it only ever appends to the lists, and the
// snapshot's are clipped, so neither side sees the other grow) and must be
// treated as read-only; a refresh snapshots once per target.
func (ec *EvalContext) Stats() EvalStats {
	if ec == nil {
		return EvalStats{}
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	s := ec.stats
	s.Ops = slices.Clip(ec.stats.Ops)
	s.Plan = slices.Clip(ec.roots)
	s.PlanTruncated = ec.truncated
	return s
}

// PlanSummary renders the executed plan trees as a compact one-line
// signature — operator names with emitted cardinalities (on restricted
// nodes, ⋉ and the probe's row count), children in parentheses — bounded to
// maxLen bytes (0 means 256). It is the form a query's trace span carries:
// enough to recognize the plan shape from a trace without shipping the
// full EXPLAIN ANALYZE tree into the span store.
func (s EvalStats) PlanSummary(maxLen int) string {
	if maxLen <= 0 {
		maxLen = 256
	}
	if len(s.Plan) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range s.Plan {
		if i > 0 {
			b.WriteString("; ")
		}
		summarizeNode(&b, n, maxLen)
		if b.Len() > maxLen {
			break
		}
	}
	out := b.String()
	if len(out) > maxLen {
		out = out[:maxLen] + "…"
	}
	if s.PlanTruncated {
		out += " (truncated)"
	}
	return out
}

// summarizeNode writes one plan node (and children) compactly, stopping
// early once the builder exceeds the byte budget.
func summarizeNode(b *strings.Builder, n *PlanNode, budget int) {
	if n == nil || b.Len() > budget {
		return
	}
	b.WriteString(n.Op)
	if n.Restricted {
		fmt.Fprintf(b, "⋉%d", n.ProbeRows)
	}
	fmt.Fprintf(b, "[emit=%d]", n.Emitted)
	if len(n.Children) == 0 {
		return
	}
	b.WriteString("(")
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		summarizeNode(b, c, budget)
		if b.Len() > budget {
			break
		}
	}
	b.WriteString(")")
}

// AddWall adds caller-measured end-to-end time to the totals.
func (ec *EvalContext) AddWall(d time.Duration) {
	if ec == nil {
		return
	}
	ec.mu.Lock()
	ec.stats.Wall += d
	ec.mu.Unlock()
}

// newNode allocates a plan node — restricted, recording the probe's row
// count, when probe is non-nil — or nil once the node cap is reached
// (counters still reach the flat totals either way).
func (ec *EvalContext) newNode(op string, probe *relation.Relation) *PlanNode {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if ec.planNodes >= maxPlanNodes {
		ec.truncated = true
		return nil
	}
	ec.planNodes++
	n := &PlanNode{Op: op}
	if probe != nil {
		n.Restricted, n.ProbeRows = true, int64(probe.Len())
	}
	return n
}

// addRoot records a finished top-level plan tree, bounded by maxPlanRoots.
func (ec *EvalContext) addRoot(n *PlanNode) {
	if ec == nil || n == nil {
		return
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if len(ec.roots) >= maxPlanRoots {
		ec.truncated = true
		return
	}
	ec.roots = append(ec.roots, n)
}

// finishNode folds one operator node's counters into the flat totals and
// bounded trace, and (when n is non-nil) completes its plan node with
// counters and inclusive/exclusive wall time.
func (ec *EvalContext) finishNode(op string, n *PlanNode, s relation.OpStats, wall time.Duration) {
	if n != nil {
		n.Scanned = s.Scanned
		n.Probed = s.Probed
		n.Emitted = s.Emitted
		n.IndexHits = s.IndexHits
		n.IndexBuilds = s.IndexBuilds
		n.Batches = s.Batches
		n.Inclusive = wall
		excl := wall
		for _, c := range n.Children {
			excl -= c.Inclusive
		}
		if excl < 0 {
			excl = 0
		}
		n.Exclusive = excl
	}
	ec.mu.Lock()
	ec.stats.Scanned += s.Scanned
	ec.stats.Probed += s.Probed
	ec.stats.Emitted += s.Emitted
	ec.stats.IndexHits += s.IndexHits
	ec.stats.IndexBuilds += s.IndexBuilds
	ec.stats.Batches += s.Batches
	ec.checkBudgetLocked()
	if len(ec.stats.Ops) < maxOpRecords {
		ec.stats.Ops = append(ec.stats.Ops, OpStat{
			Op:          op,
			Scanned:     s.Scanned,
			Probed:      s.Probed,
			Emitted:     s.Emitted,
			IndexHits:   s.IndexHits,
			IndexBuilds: s.IndexBuilds,
			Batches:     s.Batches,
			Wall:        wall,
		})
	}
	ec.mu.Unlock()
}

// opName labels an operator node in the per-node trace.
func opName(e Expr) string {
	switch n := e.(type) {
	case *Base:
		return "base(" + n.Name + ")"
	case *Empty:
		return "empty"
	case *Select:
		return "select"
	case *Project:
		return "project"
	case *Join:
		return fmt.Sprintf("join(%d)", len(n.Inputs))
	case *Union:
		return "union"
	case *Diff:
		return "diff"
	case *Rename:
		return "rename"
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", e))
	}
}

// EvalCtx evaluates e against the state under an evaluation context: the
// carried context.Context is checked at every operator boundary (a
// canceled evaluation stops before starting its next operator), every
// operator records its counters into the context, and the whole
// evaluation is recorded as one plan tree in the context's stats. A nil
// ec evaluates without cancellation or instrumentation. The result
// aliases state contents when e is a bare base reference and is freshly
// allocated otherwise; callers must treat it as read-only (clone before
// mutating). EvalCtx returns an error on unknown relations or
// schema-incompatible set operations; such errors indicate expressions
// that were not validated with Attrs first. It is EvalRestricted without
// a probe.
func EvalCtx(ec *EvalContext, e Expr, st State) (*relation.Relation, error) {
	return EvalRestricted(ec, e, st, nil)
}

// EvalRestricted evaluates e under the restricted-value contract: the
// result agrees with the full EvalCtx value on every tuple whose projection
// onto probe's attributes occurs in probe; tuples not matching the probe
// may or may not appear. Base references become semi-joins against the
// probe, and the probe is pushed through every operator, so a small probe —
// a delta (how maintenance reads the old and new values its rules consult),
// the constants of a selection, the keys a join has produced so far —
// touches only matching fractions of the stored relations instead of
// forcing full reconstructions. The probe's attribute set should be
// contained in e's; a probe over foreign attributes falls back to the full
// evaluation of e (checked here, once: the probes the walker hands down are
// made of attributes the receiving subexpression has). Under a probe the
// result never aliases state contents — callers may mutate it; a nil probe
// asks for the full value, which may (see EvalCtx).
func EvalRestricted(ec *EvalContext, e Expr, st State, probe *relation.Relation) (*relation.Relation, error) {
	foreign := false
	if probe != nil {
		attrs := mustAttrsOf(e, st)
		foreign = slices.ContainsFunc(probe.Attrs(), func(a string) bool { return !attrs.Has(a) })
	}
	out, n, err := evalCtxNode(ec, e, st, probe, foreign)
	if err != nil {
		return nil, err
	}
	// The boundary check runs before each operator, so a root operator
	// that trips the budget needs this final budget-only check (budget
	// only: a context canceled after a complete answer stays an answer).
	if err := ec.budgetError(); err != nil {
		return nil, err
	}
	ec.addRoot(n)
	return out, nil
}

// evalCtxNode evaluates e, restricted by probe unless it is nil, and returns
// its (possibly nil) plan node for the caller to attach to a parent or roots.
func evalCtxNode(ec *EvalContext, e Expr, st State, probe *relation.Relation, foreign bool) (*relation.Relation, *PlanNode, error) {
	if err := ec.Err(); err != nil {
		return nil, nil, err
	}
	if ec == nil {
		out, err := evalNode(nil, e, st, probe, foreign, nil, nil)
		return out, nil, err
	}
	op := opName(e)
	n := ec.newNode(op, probe)
	if probe != nil {
		op += "⋉"
	}
	start := time.Now()
	var ops relation.OpStats
	out, err := evalNode(ec, e, st, probe, foreign, &ops, n)
	if err != nil {
		return nil, nil, err
	}
	ec.finishNode(op, n, ops, time.Since(start))
	return out, n, nil
}

// evalNode is the one walker: it evaluates one operator node — in full when
// probe is nil, else under the restricted-value contract — recursing through
// evalChild, so each child gets its own cancellation check and plan node.
func evalNode(ec *EvalContext, e Expr, st State, probe *relation.Relation, foreign bool, sp *relation.OpStats, pn *PlanNode) (*relation.Relation, error) {
	if foreign {
		out, err := evalChild(ec, e, st, nil, pn)
		if err != nil {
			return nil, err
		}
		if _, isBase := e.(*Base); isBase {
			out = out.Clone() // keep the no-aliasing guarantee
		}
		return out, nil
	}
	switch n := e.(type) {
	case *Base:
		r, ok := st.Relation(n.Name)
		if !ok {
			return nil, fmt.Errorf("algebra: state has no relation %q: %w", n.Name, ErrUnknownRelation)
		}
		if probe != nil {
			return relation.SemiJoinStats(r, probe, sp), nil
		}
		sp.Add(relation.OpStats{Emitted: int64(r.Len())})
		return r, nil
	case *Empty:
		return relation.New(n.Attrs...), nil
	case *Select:
		// Without a probe from above, the attr = const conjuncts are a
		// one-row probe of their own, so a selection that reaches stored
		// relations probes their indexes instead of scanning them. The
		// whole condition is re-applied to the (small) restricted value.
		if probe == nil {
			probe = constProbe(n.Cond, mustAttrsOf(n.Input, st))
		}
		in, err := evalChild(ec, n.Input, st, probe, pn)
		if err != nil {
			return nil, err
		}
		return SelectCond(in, n.Cond, sp), nil
	case *Project:
		// probe attrs ⊆ Z ⊆ input attrs, so the probe applies directly to
		// the input; garbage rows project to non-matching tuples and stay
		// harmless under the contract.
		in, err := evalChild(ec, n.Input, st, probe, pn)
		if err != nil {
			return nil, err
		}
		return relation.ProjectStats(in, sp, n.Attrs...), nil
	case *Join:
		// The probe is one more join input: E ⋉ probe = E ⋈ probe when
		// the probe's attributes lie within E's.
		return evalJoin(ec, n.Inputs, st, probe, sp, pn)
	case *Union:
		l, r, err := evalSides(ec, n.L, n.R, st, probe, pn)
		if err != nil {
			return nil, err
		}
		return relation.UnionStats(l, r, sp)
	case *Diff:
		// Restricting both sides by the same probe keeps the difference
		// exact on probe-matching tuples: a match surviving in L appears in
		// restricted L, and its presence in R is decided by restricted R.
		l, r, err := evalSides(ec, n.L, n.R, st, probe, pn)
		if err != nil {
			return nil, err
		}
		return relation.DiffStats(l, r, sp)
	case *Rename:
		if probe != nil {
			// Translate the probe back into the input's attribute space.
			back := make(map[string]string)
			for from, to := range n.Mapping {
				if probe.HasAttr(to) {
					back[to] = from
				}
			}
			var err error
			if probe, err = relation.Rename(probe, back); err != nil {
				return nil, err
			}
		}
		in, err := evalChild(ec, n.Input, st, probe, pn)
		if err != nil {
			return nil, err
		}
		out, err := relation.Rename(in, n.Mapping)
		if err != nil {
			return nil, err
		}
		sp.Add(relation.OpStats{Scanned: int64(in.Len()), Emitted: int64(out.Len())})
		return out, nil
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", e))
	}
}

// evalChild evaluates a child expression, restricted by probe unless it is
// nil, and hangs its plan node under pn.
func evalChild(ec *EvalContext, e Expr, st State, probe *relation.Relation, pn *PlanNode) (*relation.Relation, error) {
	out, cn, err := evalCtxNode(ec, e, st, probe, false)
	if err != nil {
		return nil, err
	}
	pn.addChild(cn)
	return out, nil
}

// evalSides evaluates both inputs of a union or difference under one probe.
func evalSides(ec *EvalContext, l, r Expr, st State, probe *relation.Relation, pn *PlanNode) (*relation.Relation, *relation.Relation, error) {
	lv, err := evalChild(ec, l, st, probe, pn)
	if err != nil {
		return nil, nil, err
	}
	rv, err := evalChild(ec, r, st, probe, pn)
	if err != nil {
		return nil, nil, err
	}
	return lv, rv, nil
}

// evalJoin is the one place joins are ordered, for the full and the
// restricted path alike (probe is nil on the full path and otherwise
// joins as one more input). Inputs are taken greedily: the one with the
// fewest stored rows first, then repeatedly the smallest remaining input
// that shares attributes with the accumulated result, with a Cartesian leg
// only when nothing shares. Whenever the accumulated result has fewer rows
// than are stored under the next input, that input is evaluated restricted
// by π_shared(acc) instead of in full — sideways information passing
// decided from the cardinalities the evaluation has actually produced, so
// a union of large stored relations joined with a few selected rows is
// probed through the leaves' indexes and never materialized. A base leaf
// is not restricted first: NaturalJoinStats probes its cached index
// directly, and a semi-join would only copy the matching rows to re-index
// them. Attribute-set semantics are order-independent, so only the
// (presentational) column order and the intermediate sizes change.
func evalJoin(ec *EvalContext, inputs []Expr, st State, probe *relation.Relation, sp *relation.OpStats, pn *PlanNode) (*relation.Relation, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("algebra: join of zero inputs")
	}
	type pending struct {
		e      Expr
		attrs  relation.AttrSet
		stored int
	}
	rem := make([]pending, len(inputs))
	for i, in := range inputs {
		rem[i] = pending{in, mustAttrsOf(in, st), storedRows(in, st)}
	}
	acc, accStored := probe, false
	for len(rem) > 0 {
		accAttrs := relation.NewAttrSet()
		if acc != nil {
			accAttrs = acc.AttrSet()
		}
		pick, pickShares := -1, false
		for i, p := range rem {
			sh := !accAttrs.Intersect(p.attrs).IsEmpty()
			switch {
			case pick == -1, sh && !pickShares:
				pick, pickShares = i, sh
			case sh == pickShares && p.stored < rem[pick].stored:
				pick = i
			}
		}
		p := rem[pick]
		rem = append(rem[:pick], rem[pick+1:]...)
		_, stored := p.e.(*Base)
		var r *relation.Relation
		var err error
		if pickShares && !stored && acc.Len() < p.stored {
			r, err = evalChild(ec, p.e, st, relation.ProjectStats(acc, sp, accAttrs.Intersect(p.attrs).Sorted()...), pn)
		} else {
			r, err = evalChild(ec, p.e, st, nil, pn)
		}
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc, accStored = r, stored
			continue
		}
		var js relation.OpStats
		acc = relation.NaturalJoinStats(acc, r, &js)
		if !stored && !accStored {
			// Neither side outlives this evaluation: the hash table built
			// on one of them is the join's build phase, not a miss of the
			// index cache on stored relations.
			js.IndexBuilds = 0
		}
		sp.Add(js)
		accStored = false
	}
	return acc, nil
}

// storedRows is the number of rows a full evaluation of e has to read:
// the rows stored under it, not counting what a selection reaches through
// a constant probe.
func storedRows(e Expr, st State) int {
	switch x := e.(type) {
	case *Base:
		if r, ok := st.Relation(x.Name); ok {
			return r.Len()
		}
		return 0
	case *Select:
		if attrs, _ := constBindings(x.Cond, mustAttrsOf(x.Input, st)); len(attrs) > 0 {
			return 0 // evaluated through its constant probe
		}
	}
	n := 0
	for _, c := range children(e) {
		n += storedRows(c, st)
	}
	return n
}

// constBindings returns the attributes of in that a top-level
// attr = const conjunct of c fixes, with their constants. An index probe
// matches by Value.Equal and hash, σ by Value.Compare; the two agree on
// every pair of values, but only bool, int and string constants are
// bound: NULL and float constants (whose equality is where the
// representation subtleties live — NaN, −0, widening) and attr = attr
// stay with σ alone, which is re-applied in full anyway.
func constBindings(c Cond, in relation.AttrSet) ([]string, relation.Tuple) {
	var attrs []string
	var vals relation.Tuple
	for _, cj := range Conjuncts(c) {
		cmp, ok := cj.(*Cmp)
		if !ok || cmp.Op != OpEq {
			continue
		}
		a, v := cmp.Left, cmp.Right
		if !a.IsAttr {
			a, v = v, a
		}
		if !a.IsAttr || v.IsAttr || !in.Has(a.Attr) || slices.Contains(attrs, a.Attr) {
			continue
		}
		switch v.Val.Kind() {
		case relation.KindBool, relation.KindInt, relation.KindString:
			attrs = append(attrs, a.Attr)
			vals = append(vals, v.Val)
		}
	}
	return attrs, vals
}

// constProbe returns constBindings as a one-row probe, or nil when c
// binds nothing.
func constProbe(c Cond, in relation.AttrSet) *relation.Relation {
	attrs, vals := constBindings(c, in)
	if len(attrs) == 0 {
		return nil
	}
	p := relation.New(attrs...)
	p.Insert(vals)
	return p
}

// mustAttrsOf returns the attribute set of e for probe-pushing decisions.
// It derives attributes from the expression structure and the state's live
// relations without the full static validation of Attrs; unknown base
// names yield the empty set (the subsequent evaluation reports the error).
func mustAttrsOf(e Expr, st State) relation.AttrSet {
	switch n := e.(type) {
	case *Base:
		r, ok := st.Relation(n.Name)
		if !ok {
			return relation.NewAttrSet()
		}
		return r.AttrSet()
	case *Empty:
		return relation.NewAttrSet(n.Attrs...)
	case *Select:
		return mustAttrsOf(n.Input, st)
	case *Project:
		return relation.NewAttrSet(n.Attrs...)
	case *Join:
		out := relation.NewAttrSet()
		for _, in := range n.Inputs {
			out = out.Union(mustAttrsOf(in, st))
		}
		return out
	case *Union:
		return mustAttrsOf(n.L, st)
	case *Diff:
		return mustAttrsOf(n.L, st)
	case *Rename:
		in := mustAttrsOf(n.Input, st)
		out := relation.NewAttrSet()
		for a := range in {
			if to, ok := n.Mapping[a]; ok {
				out[to] = struct{}{}
			} else {
				out[a] = struct{}{}
			}
		}
		return out
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", e))
	}
}
