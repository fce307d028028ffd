package dwc

import (
	"context"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/core"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
)

// Instrumentation types of the evaluation engine.
type (
	// EvalStats aggregates the operator counters (tuples scanned, index
	// probes and hits, indexes built, tuples emitted) and wall time of one
	// evaluation, plus a bounded per-operator breakdown in Ops.
	EvalStats = algebra.EvalStats
	// OpStat is the counter record of a single operator node.
	OpStat = algebra.OpStat
	// PlanNode is one operator node of an executed plan tree — the
	// EXPLAIN ANALYZE view. EvalStats.Plan holds one tree per top-level
	// evaluation; per-node counters sum to the flat totals.
	PlanNode = algebra.PlanNode
)

// RenderPlan renders executed plan trees as an indented text tree. With
// withTiming false the output is deterministic for a fixed state and
// expression; with true each node shows inclusive/exclusive wall time.
func RenderPlan(roots []*PlanNode, withTiming bool) string {
	return algebra.RenderPlan(roots, withTiming)
}

// ExprTree renders an expression as an indented operator tree — the
// static EXPLAIN view of a query, before execution.
func ExprTree(e Expr) string { return algebra.ExprTree(e) }

// Explain translates the source query q against w's view definitions
// (Theorem 3.1) and returns the translated expression with its static
// operator-tree rendering, without executing anything.
func Explain(w *Warehouse, q Expr) (Expr, string, error) {
	tq, err := w.TranslateQuery(q)
	if err != nil {
		return nil, "", err
	}
	return tq, algebra.ExprTree(tq), nil
}

// ExplainAnalyze answers q from the warehouse under instrumentation and
// returns the result, the executed per-operator plan tree (stats.Plan),
// and its text rendering with timings. Equivalent to AnswerContext plus
// RenderPlan.
func ExplainAnalyze(ctx context.Context, w *Warehouse, q Expr) (*Relation, *EvalStats, string, error) {
	r, stats, err := w.AnswerContext(ctx, q)
	if err != nil {
		return nil, stats, "", err
	}
	return r, stats, algebra.RenderPlan(stats.Plan, true), nil
}

// Sentinel errors surfaced by the evaluation and maintenance paths; match
// them with errors.Is.
var (
	// ErrUnknownRelation reports a reference to a relation the evaluated
	// state does not contain.
	ErrUnknownRelation = algebra.ErrUnknownRelation
	// ErrSchemaMismatch reports set operations over unequal attribute sets.
	ErrSchemaMismatch = relation.ErrSchemaMismatch
	// ErrBudgetExceeded reports an evaluation aborted because it scanned
	// or emitted more rows than the Budget on its context allows.
	ErrBudgetExceeded = algebra.ErrBudgetExceeded
)

// Budget bounds the physical work (rows scanned / rows emitted) of one
// evaluation; attach it to a context with WithBudget and every Answer,
// EvalExpr or ExplainAnalyze call on that context enforces it.
type Budget = algebra.Budget

// WithBudget returns a context carrying b; evaluations on the returned
// context abort with ErrBudgetExceeded once they exceed it.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return algebra.WithBudget(ctx, b)
}

// Answer answers a source query from the warehouse: q is translated
// against the view definitions (Theorem 3.1) and the translated query is
// evaluated over warehouse relations only. This is the primary query
// entry point of the facade — context-first, instrumented, and returning
// a Rows batch cursor over the columnar result. The context is checked at
// every operator boundary; a canceled context aborts evaluation with an
// error wrapping the context's error.
func Answer(ctx context.Context, w *Warehouse, q Expr) (*Rows, error) {
	r, stats, err := w.AnswerContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return newRows(r, stats), nil
}

// EvalExpr evaluates an expression against any state (a *State, a
// *Warehouse, or a plain relation map) under cancellation and
// instrumentation, returning a Rows batch cursor over the result. Like
// Answer, the context is checked at every operator boundary.
func EvalExpr(ctx context.Context, e Expr, st algebra.State) (*Rows, error) {
	ec := algebra.NewEvalContext(ctx)
	start := time.Now()
	r, err := algebra.EvalCtx(ec, e, st)
	if err != nil {
		return nil, err
	}
	stats := ec.Stats()
	stats.Wall = time.Since(start)
	return newRows(r, &stats), nil
}

// Refresh incrementally applies a source update to the warehouse through
// the maintainer — warehouse-only, never querying the sources (Theorem
// 4.1). This is the primary maintenance entry point of the facade; the
// context is checked between propagation steps and at every operator
// boundary inside them, and a canceled refresh aborts before any delta is
// applied, leaving the warehouse untouched.
func Refresh(ctx context.Context, m *Maintainer, w *Warehouse, u *Update) (RefreshStats, error) {
	return m.RefreshContext(ctx, w, u)
}

// AnswerDelta computes Δ(q): how the answer to the source query q over
// W⁻¹(w) changes under u, from the warehouse state w and the update alone —
// Theorem 4.1's maintenance applied to a query instead of a view, every
// base reference replaced by its inverse. u must be exact against W⁻¹(w)
// (every insertion absent, every deletion present), as a refresh's
// RefreshStats.Update is against its pre-state. Like the refresh, the
// delta may over-approximate (an empty one means the answer is unchanged);
// the context is checked at every read, and a Budget on it bounds the rows
// they scan.
func AnswerDelta(ctx context.Context, comp *Complement, w algebra.State, q Expr, u *Update) (Delta, error) {
	ec := algebra.NewEvalContext(ctx)
	d, err := maintain.Propagate(q, maintain.NewVirtualStateCtx(comp, w, ec), u)
	if cerr := ec.Err(); cerr != nil {
		return Delta{}, cerr
	}
	return d, err
}

// Option configures complement computation (core.Options) functionally.
// The zero configuration is Proposition 2.2: no integrity constraints.
type Option func(*core.Options)

// WithKeys enables the key-based covers of Theorem 2.2.
func WithKeys(on bool) Option {
	return func(o *core.Options) { o.UseKeys = on }
}

// WithINDs admits IND-derived pseudo-views into the covers (requires
// WithKeys: pseudo-views must contain the target's key).
func WithINDs(on bool) Option {
	return func(o *core.Options) { o.UseINDs = on }
}

// WithEmptyDetection runs the static always-empty analysis; proved-empty
// complements need no storage or maintenance.
func WithEmptyDetection(on bool) Option {
	return func(o *core.Options) { o.DetectEmpty = on }
}

// WithNamePrefix sets the complement relation name prefix (default "C_").
func WithNamePrefix(prefix string) Option {
	return func(o *core.Options) { o.NamePrefix = prefix }
}

// NewOptions builds complement-computation options from functional
// options. With no arguments it equals Proposition22(); WithKeys, WithINDs
// and WithEmptyDetection together reproduce Theorem22().
func NewOptions(opts ...Option) Options {
	o := core.Options{}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
