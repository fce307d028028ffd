// Package warehouse implements the warehouse side of the paper: the
// augmented warehouse W = V ∪ C as a materialized state, the one-to-one
// mapping W from database states to warehouse states and its inverse W⁻¹
// (Proposition 2.1), query translation Q̂ = Q ∘ W⁻¹ (Section 3, Theorem
// 3.1), and empirical refutation of query independence for un-augmented
// warehouses (Example 1.2).
package warehouse

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
)

// ErrReadOnlyReplica reports a mutation attempted against a sealed
// warehouse: a replica following a leader's journal stream. Only the
// replication apply path (which holds the seal) may install relations;
// everything else must be routed to the leader, or it would silently
// diverge from the replicated state.
var ErrReadOnlyReplica = errors.New("warehouse: read-only replica (following a leader; write to the leader instead)")

// Warehouse is a materialized, independent warehouse: the views V plus the
// stored complement relations C, with W⁻¹ available for query translation
// and base-relation reconstruction.
type Warehouse struct {
	comp  *core.Complement
	state algebra.MapState

	// sealed marks the warehouse read-only: Commit (the single commit
	// primitive every refresh funnels through) refuses with
	// ErrReadOnlyReplica. A follower holds its warehouse sealed except
	// inside its own serialized replication apply.
	sealed atomic.Bool
}

// New creates an unmaterialized warehouse from a computed complement.
// Call Initialize (or load a state) before answering queries.
func New(comp *core.Complement) *Warehouse {
	return &Warehouse{comp: comp, state: make(algebra.MapState)}
}

// Build runs the paper's Section 5 pipeline in one call: compute the
// complement of the view set under the options, augment the warehouse,
// and materialize it from the database state.
func Build(db *catalog.Database, views *view.Set, opts core.Options, st algebra.State) (*Warehouse, error) {
	comp, err := core.Compute(db, views, opts)
	if err != nil {
		return nil, err
	}
	w := New(comp)
	if err := w.Initialize(st); err != nil {
		return nil, err
	}
	return w, nil
}

// Complement returns the underlying complement (definitions, inverses,
// covers).
func (w *Warehouse) Complement() *core.Complement { return w.comp }

// Initialize materializes every view and stored complement from the given
// database state: w = W(d).
func (w *Warehouse) Initialize(st algebra.State) error {
	ms, err := w.comp.MaterializeWarehouseCtx(nil, st)
	if err != nil {
		return err
	}
	w.state = ms
	return nil
}

// CloneState returns a deep copy of the current warehouse state, usable
// as a snapshot for later LoadState (benchmarks restore pre-states this
// way without re-materializing).
func (w *Warehouse) CloneState() algebra.MapState {
	out := make(algebra.MapState, len(w.state))
	for name, r := range w.state {
		out[name] = r.Clone()
	}
	return out
}

// LoadState installs a previously materialized warehouse state without
// recomputation. The caller is responsible for the state matching the
// warehouse's complement (same relation names and schemas).
func (w *Warehouse) LoadState(ms algebra.MapState) {
	w.state = ms
}

// Relation implements algebra.State over the warehouse's materialized
// relations.
func (w *Warehouse) Relation(name string) (*relation.Relation, bool) {
	r, ok := w.state[name]
	return r, ok
}

// State returns the warehouse state. Callers must treat it as read-only;
// package maintain replaces it through Refresh.
func (w *Warehouse) State() algebra.MapState { return w.state }

// Commit moves the warehouse to its next state: the current relations
// with every entry of changed replaced. It is the commit primitive of
// the atomic refresh: package maintain applies every delta to copies
// first and commits them only once all of them (and all delta consumers)
// have succeeded, so a failed refresh leaves the warehouse bitwise
// unchanged. The next state is a fresh map swapped in whole and neither
// the previous map nor a committed relation is ever written again, so a
// State() (or a Pin) taken before the call keeps describing the previous
// state for as long as it is held. A sealed warehouse refuses with
// ErrReadOnlyReplica — the single-writer guard every mutation path
// shares, instead of each caller remembering to check a flag.
func (w *Warehouse) Commit(changed map[string]*relation.Relation) error {
	if w.sealed.Load() {
		return ErrReadOnlyReplica
	}
	if len(changed) == 0 {
		return nil
	}
	next := make(algebra.MapState, len(w.state))
	maps.Copy(next, w.state)
	maps.Copy(next, changed)
	w.state = next
	return nil
}

// Pin returns a sealed warehouse fixed at the current state: it answers
// and reconstructs like w did at the moment of the call, whatever w
// commits or loads afterwards, and may be read from any goroutine.
func (w *Warehouse) Pin() *Warehouse {
	p := &Warehouse{comp: w.comp, state: w.state}
	p.sealed.Store(true)
	return p
}

// Seal marks the warehouse read-only: every Commit fails with
// ErrReadOnlyReplica until Unseal. The flag does not protect the state
// from concurrent access — callers still serialize as before — it
// protects it from the wrong WRITER: a follower's local update path
// cannot silently diverge from the leader's stream.
func (w *Warehouse) Seal() { w.sealed.Store(true) }

// Unseal lifts the read-only seal. The replication apply path brackets
// each replayed refresh with Unseal/Seal while holding the lock that
// serializes the warehouse's writers; readers work on a Pin.
func (w *Warehouse) Unseal() { w.sealed.Store(false) }

// Sealed reports whether the warehouse is read-only.
func (w *Warehouse) Sealed() bool { return w.sealed.Load() }

// Names returns the materialized relation names in sorted order.
func (w *Warehouse) Names() []string {
	out := make([]string, 0, len(w.state))
	for n := range w.state {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of materialized tuples (views plus
// complements) — the warehouse storage cost.
func (w *Warehouse) Size() int {
	n := 0
	for _, r := range w.state {
		n += r.Len()
	}
	return n
}

// TranslateQuery rewrites a query over the base schemata D into the
// equivalent query Q̂ over warehouse relations (Theorem 3.1): every base
// reference is substituted by its inverse expression, and the result is
// simplified. The input is validated against D and the output against the
// warehouse name space.
func (w *Warehouse) TranslateQuery(q algebra.Expr) (algebra.Expr, error) {
	db := w.comp.Database()
	if _, err := algebra.Attrs(q, db); err != nil {
		return nil, fmt.Errorf("warehouse: query invalid over the sources: %w", err)
	}
	translated := algebra.Substitute(q, w.comp.InverseMap())
	res := w.comp.Resolver()
	translated = algebra.Optimize(translated, res)
	if _, err := algebra.Attrs(translated, res); err != nil {
		return nil, fmt.Errorf("warehouse: translated query invalid over the warehouse: %w", err)
	}
	return translated, nil
}

// TranslateQueryUnoptimized performs the substitution and simplification
// of Theorem 3.1 without the pushdown optimizer — the ablation baseline of
// experiment E8.
func (w *Warehouse) TranslateQueryUnoptimized(q algebra.Expr) (algebra.Expr, error) {
	db := w.comp.Database()
	if _, err := algebra.Attrs(q, db); err != nil {
		return nil, fmt.Errorf("warehouse: query invalid over the sources: %w", err)
	}
	translated := algebra.Substitute(q, w.comp.InverseMap())
	res := w.comp.Resolver()
	translated = algebra.Simplify(translated, res)
	if _, err := algebra.Attrs(translated, res); err != nil {
		return nil, fmt.Errorf("warehouse: translated query invalid over the warehouse: %w", err)
	}
	return translated, nil
}

// AnswerContext translates the source query and evaluates it on the
// current warehouse state — no source access whatsoever. The context is
// checked at every operator boundary of the translated query's evaluation
// (a canceled context aborts with a wrapped context error), and the
// returned EvalStats reports the evaluation's operator counters and wall
// time. The stats are returned even when evaluation fails.
func (w *Warehouse) AnswerContext(ctx context.Context, q algebra.Expr) (*relation.Relation, *algebra.EvalStats, error) {
	ec := algebra.NewEvalContext(ctx)
	start := time.Now()
	t, err := w.TranslateQuery(q)
	if err != nil {
		return nil, nil, err
	}
	r, err := algebra.EvalCtx(ec, t, w)
	stats := ec.Stats()
	stats.Wall = time.Since(start)
	return r, &stats, err
}

// ReconstructBases applies W⁻¹ to the current warehouse state, returning
// every base relation's content keyed by name.
func (w *Warehouse) ReconstructBases() (map[string]*relation.Relation, error) {
	return w.comp.ReconstructCtx(nil, w)
}

// CheckQueryIndependence verifies Theorem 3.1 empirically: for every query
// and every state, Q(d) must equal Q̂(W(d)). It returns the first
// discrepancy as an error.
func (w *Warehouse) CheckQueryIndependence(queries []algebra.Expr, states []algebra.State) error {
	for qi, q := range queries {
		qHat, err := w.TranslateQuery(q)
		if err != nil {
			return fmt.Errorf("warehouse: query %d: %w", qi, err)
		}
		for si, st := range states {
			want, err := algebra.EvalCtx(nil, q, st)
			if err != nil {
				return err
			}
			ws, err := w.comp.MaterializeWarehouseCtx(nil, st)
			if err != nil {
				return err
			}
			got, err := algebra.EvalCtx(nil, qHat, ws)
			if err != nil {
				return err
			}
			if !got.Equal(want) {
				return fmt.Errorf("warehouse: query %d state %d: Q̂(W(d)) ≠ Q(d)\nQ:  %s\nQ̂:  %s\ngot  %d tuples, want %d",
					qi, si, q, qHat, got.Len(), want.Len())
			}
		}
	}
	return nil
}

// Witness is a pair of database states proving that a query cannot be
// answered from a set of materialized relations: the states agree on every
// materialized relation yet disagree on the query result.
type Witness struct {
	StateA, StateB int // indices into the corpus
	Query          algebra.Expr
}

// String describes the witness.
func (wn Witness) String() string {
	return fmt.Sprintf("states #%d and #%d have identical warehouse images but different answers to %s",
		wn.StateA, wn.StateB, wn.Query)
}

// FindAnswerabilityWitness searches the corpus for a proof that query q is
// NOT answerable from the given warehouse relations alone (Example 1.2's
// argument): two states with identical images under the materialized
// expressions but different query answers. The defs map names each
// materialized relation to its defining expression over D. It returns the
// witness and true when found.
func FindAnswerabilityWitness(q algebra.Expr, defs map[string]algebra.Expr, states []algebra.State) (Witness, bool, error) {
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	type imaged struct {
		idx    int
		img    string
		answer string
	}
	var imgs []imaged
	for i, st := range states {
		var b strings.Builder
		for _, n := range names {
			r, err := algebra.EvalCtx(nil, defs[n], st)
			if err != nil {
				return Witness{}, false, err
			}
			b.WriteString(n)
			b.WriteByte('=')
			b.WriteString(r.Fingerprint())
			b.WriteByte('#')
		}
		ans, err := algebra.EvalCtx(nil, q, st)
		if err != nil {
			return Witness{}, false, err
		}
		imgs = append(imgs, imaged{i, b.String(), ans.Fingerprint()})
	}
	byImage := make(map[string]imaged)
	for _, im := range imgs {
		if prev, ok := byImage[im.img]; ok && prev.answer != im.answer {
			return Witness{StateA: prev.idx, StateB: im.idx, Query: q}, true, nil
		}
		if _, ok := byImage[im.img]; !ok {
			byImage[im.img] = im
		}
	}
	return Witness{}, false, nil
}
