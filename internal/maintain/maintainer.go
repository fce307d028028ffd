package maintain

import (
	"context"
	"fmt"
	"slices"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/trace"
	"dwcomplement/internal/warehouse"
)

// VirtualState resolves base-relation references by evaluating their
// inverse expressions against a warehouse state — the mechanical form of
// the paper's instruction to "replace any reference to a base relation
// occurring in the maintenance expression by its inverse" (Section 4).
// Propagate takes that instruction literally: handed a VirtualState, it
// substitutes the inverses into the expressions it evaluates over the
// warehouse state, so small deltas never force a full reconstruction.
// As an algebra.State (for parsing and ad-hoc reads — modification
// statements expand against it) it reconstructs a base relation in full on
// every call. Not safe for concurrent use.
type VirtualState struct {
	resolve
	w  algebra.State
	ec *algebra.EvalContext

	// Read counters: how many old/new values (of base relations and of the
	// subexpressions propagation consults) were read under a probe versus
	// in full. The ratio is the restricted-eval saving a refresh achieved.
	nRestricted, nFull int64
}

// NewVirtualState builds a virtual pre-state over the warehouse state.
func NewVirtualState(comp *core.Complement, w algebra.State) *VirtualState {
	return NewVirtualStateCtx(comp, w, nil)
}

// NewVirtualStateCtx is NewVirtualState under an evaluation context: every
// evaluation checks for cancellation and records its counters.
func NewVirtualStateCtx(comp *core.Complement, w algebra.State, ec *algebra.EvalContext) *VirtualState {
	return &VirtualState{resolve: newResolve(comp), w: w, ec: ec}
}

// resolve is how a virtual state answers a base reference: the inverse
// W⁻¹ of each base relation, and its attribute order. It depends on the
// complement alone, so a maintainer makes it once.
type resolve struct {
	inverses map[string]algebra.Expr
	attrs    map[string][]string
	deltas   map[string]*deltaBases
}

func newResolve(comp *core.Complement) resolve {
	r := resolve{inverses: comp.InverseMap(), attrs: make(map[string][]string), deltas: make(map[string]*deltaBases)}
	for name, sc := range comp.Database().Schemas() {
		r.attrs[name], r.deltas[name] = sc.AttrNames(), newDeltaBases(name)
	}
	return r
}

// Relation implements algebra.State: base names resolve through W⁻¹, in
// full, each call.
func (v *VirtualState) Relation(name string) (*relation.Relation, bool) {
	inv, ok := v.inverses[name]
	if !ok {
		return nil, false
	}
	v.countRead(nil)
	r, err := algebra.EvalCtx(v.ec, inv, v.w)
	if err != nil {
		return nil, false
	}
	return r, true
}

// RelationRestricted reconstructs only the fraction of the base relation
// matching the probe by pushing the probe through the inverse expression
// (semi-join pushdown): a freshly allocated relation agreeing with
// Relation(name) on every tuple matching the probe (the restricted-value
// contract of algebra.EvalRestricted).
func (v *VirtualState) RelationRestricted(name string, probe *relation.Relation) (*relation.Relation, error) {
	inv, ok := v.inverses[name]
	if !ok {
		return nil, fmt.Errorf("maintain: no inverse for relation %q", name)
	}
	v.countRead(probe)
	return algebra.EvalRestricted(v.ec, inv, v.w, probe)
}

// countRead counts one value read: restricted under a probe, full without.
func (v *VirtualState) countRead(probe *relation.Relation) {
	if probe != nil {
		v.nRestricted++
	} else {
		v.nFull++
	}
}

// RefreshSpan is the per-target trace of one refresh: how large the
// propagated delta was before and after normalization against the
// pre-state, and how long propagation took. Servers expose spans through
// /stats and feed their durations into refresh histograms.
type RefreshSpan struct {
	// Target is the refreshed warehouse relation (view or complement).
	Target string `json:"target"`
	// DeltaIns / DeltaDel are the propagated delta sizes (tuples to
	// insert / delete, before normalization against the pre-state).
	DeltaIns int `json:"deltaIns"`
	DeltaDel int `json:"deltaDel"`
	// Applied is the number of tuples the exact (normalized) delta
	// actually changed.
	Applied int `json:"applied"`
	// Wall is the propagation time for this target.
	Wall time.Duration `json:"wallNs"`
	// Scanned / Probed are the rows and index probes the evaluator spent on
	// this target's propagation: what maintaining it read.
	Scanned int64 `json:"scanned"`
	Probed  int64 `json:"probed"`
}

// RefreshStats reports what a refresh did, for benchmarks and logs.
type RefreshStats struct {
	// Changed maps each warehouse relation to the number of tuples its
	// delta touched (insertions + deletions).
	Changed map[string]int
	// Update is the normalized source update the refresh propagated: exact
	// against the pre-state W⁻¹(w) — every insertion absent from it, every
	// deletion present — which the reported update need not be. It keeps
	// the reported update's own relations where they were exact already,
	// so neither may be written afterwards. Nil when the refresh failed
	// before normalizing.
	Update *catalog.Update
	// UpdateSize is the size of the normalized source update.
	UpdateSize int
	// Wall is the end-to-end refresh time.
	Wall time.Duration
	// Eval holds the operator counters and records of the refresh's
	// evaluations — normalization and every value read of the
	// propagation — without plan trees.
	Eval *algebra.EvalStats
	// Spans traces each refreshed relation's propagation (delta sizes and
	// wall time), in application order.
	Spans []RefreshSpan
	// RestrictedLookups / FullReconstructions count how the refresh's
	// reads of old and new values were answered: under a probe (cost
	// proportional to the delta) versus in full through W⁻¹.
	RestrictedLookups   int64
	FullReconstructions int64
	// CopiedBytes is what the copy-on-write apply cost in storage: the
	// bytes of relation pages the dirty relations' clones had to copy (or
	// re-allocate, when a hash table grew) to take their deltas — a few
	// pages per changed tuple, whatever the size of the views.
	CopiedBytes int64
}

// Total returns the total number of warehouse tuple changes.
func (s RefreshStats) Total() int {
	n := 0
	for _, c := range s.Changed {
		n += c
	}
	return n
}

// DeltaConsumer receives the exact per-relation delta of every refresh,
// after it has been applied. Downstream materializations — the aggregate
// summary tables of Section 5 (package aggregate) — hook in here.
type DeltaConsumer interface {
	// Consume is called once per refreshed warehouse relation with the
	// exact delta and the post-state relation.
	Consume(target string, d Delta, post *relation.Relation) error
}

// Maintainer applies source updates to a warehouse incrementally and
// update-independently: all information comes from the warehouse state and
// the reported update, never from the sources (Theorem 4.1).
type Maintainer struct {
	comp      *core.Complement
	resolve   resolve
	targets   []core.Target        // prepared: Def simplified and interned
	bases     []relation.AttrSet   // the base relations each target reads
	none      []*relation.Relation // per target, the empty relation of an unreached target's delta
	contained map[*algebra.Diff]bool
	consumers []DeltaConsumer
}

// NewMaintainer returns a maintainer for warehouses built from the
// complement. Each target definition is simplified, interned (equal subtrees
// of targets are one node) and its contained differences marked, once.
func NewMaintainer(comp *core.Complement) *Maintainer {
	db := comp.Database()
	m := &Maintainer{comp: comp, resolve: newResolve(comp), contained: make(map[*algebra.Diff]bool)}
	var seen []algebra.Expr
	for _, tg := range comp.Targets() {
		tg.Def = intern(algebra.Simplify(tg.Def, db), &seen)
		markContained(tg.Def, db, m.contained)
		m.targets, m.bases = append(m.targets, tg), append(m.bases, algebra.Bases(tg.Def))
		m.none = append(m.none, relation.New(tg.Attrs.Sorted()...))
	}
	return m
}

// intern returns the node of *seen equal to e, or else adds e — a tree of
// its own, so its inputs are interned in place — to *seen and returns it.
func intern(e algebra.Expr, seen *[]algebra.Expr) algebra.Expr {
	for _, c := range *seen {
		if algebra.Equal(c, e) {
			return c
		}
	}
	switch x := e.(type) {
	case *algebra.Base, *algebra.Empty:
	case *algebra.Select:
		x.Input = intern(x.Input, seen)
	case *algebra.Project:
		x.Input = intern(x.Input, seen)
	case *algebra.Rename:
		x.Input = intern(x.Input, seen)
	case *algebra.Join:
		for i, in := range x.Inputs {
			x.Inputs[i] = intern(in, seen)
		}
	case *algebra.Union:
		x.L, x.R = intern(x.L, seen), intern(x.R, seen)
	case *algebra.Diff:
		x.L, x.R = intern(x.L, seen), intern(x.R, seen)
	default:
		panic(fmt.Sprintf("maintain: unknown node %T", e))
	}
	*seen = append(*seen, e)
	return e
}

// AddConsumer registers a downstream delta consumer (e.g. an aggregate
// view over one of the maintained relations).
func (m *Maintainer) AddConsumer(c DeltaConsumer) {
	m.consumers = append(m.consumers, c)
}

// RefreshContext computes w' = W(u(W⁻¹(w))) incrementally and commits it
// to the warehouse. Every stored target the normalized update reaches gets
// its delta from the rules of Propagate, a subexpression the targets share
// propagated once, all base references answered through W⁻¹ over the
// warehouse state; the others get an empty delta. All deltas are computed
// against the same pre-state before any is applied. The context is checked
// between propagation steps and at every operator boundary inside them (a
// canceled refresh aborts before any delta is applied, leaving the
// warehouse untouched), and the returned stats carry the evaluation
// counters and wall time.
func (m *Maintainer) RefreshContext(ctx context.Context, w *warehouse.Warehouse, u *catalog.Update) (RefreshStats, error) {
	ec := algebra.NewEvalContext(ctx).WithoutPlans()
	start := time.Now()
	stats, err := m.refresh(ctx, ec, w, u)
	stats.Wall = time.Since(start)
	es := ec.Stats()
	es.Wall = stats.Wall
	stats.Eval = &es
	return stats, err
}

// cancelOr prefers the evaluation context's cancellation error over err,
// so a refresh aborted mid-reconstruction reports context.Canceled rather
// than the lookup failure the abort surfaced as.
func cancelOr(ec *algebra.EvalContext, err error) error {
	if cerr := ec.Err(); cerr != nil {
		return cerr
	}
	return err
}

// staged is one target's share of a refresh: its span, the exact delta
// against the live relation, and post — the live relation itself, or, when
// the exact delta changes anything (span.Applied > 0), a clone of it with
// that delta applied.
type staged struct {
	span   RefreshSpan
	exact  Delta
	post   *relation.Relation
	copied int64 // bytes of pages the clone copied to take exact
}

// stageTarget propagates one target's delta and applies it to a clone of
// the target's relation, under a "refresh.target" span (a no-op without a
// recording parent in ctx) annotated with the propagated delta sizes, what
// propagation scanned and probed — the evaluation totals' advance over
// *seen, moved along (a shared node counts for the first) — and the bytes
// of pages the clone copied; a target the update does not reach — none is
// set — gets none as both sides of its delta. The warehouse is only read:
// the pre-state every other target propagates against stays as it was.
func stageTarget(ctx context.Context, w *warehouse.Warehouse, tg core.Target, none *relation.Relation, p *propagation, seen *algebra.EvalStats) (staged, error) {
	r, ok := w.Relation(tg.Name)
	if !ok {
		return staged{}, fmt.Errorf("maintain: warehouse has no relation %q", tg.Name)
	}
	if none != nil {
		return staged{span: RefreshSpan{Target: tg.Name}, exact: Delta{Ins: none, Del: none}, post: r}, nil
	}
	_, sp := trace.StartSpan(ctx, "refresh.target")
	defer sp.End()
	sp.SetAttr("target", tg.Name)
	start := time.Now()
	n, err := p.propagate(tg.Def)
	if err != nil {
		return staged{}, fmt.Errorf("maintain: %s: %w", tg.Name, err)
	}
	st := staged{span: RefreshSpan{Target: tg.Name, DeltaIns: n.d.Ins.Len(), DeltaDel: n.d.Del.Len(), Wall: time.Since(start)}}
	now := p.vst.ec.Stats()
	st.span.Scanned, st.span.Probed = now.Scanned-seen.Scanned, now.Probed-seen.Probed
	*seen = now
	st.exact, st.post = n.d.Exact(r), r
	st.span.Applied = st.exact.Size()
	if st.span.Applied > 0 {
		st.post = r.Clone()
		st.exact.ApplyTo(st.post)
		st.copied = st.post.CopiedBytes()
	}
	sp.SetAttrInt("deltaIns", int64(st.span.DeltaIns))
	sp.SetAttrInt("deltaDel", int64(st.span.DeltaDel))
	sp.SetAttrInt("scanned", st.span.Scanned)
	sp.SetAttrInt("probed", st.span.Probed)
	sp.SetAttrInt("copiedBytes", st.copied)
	return st, nil
}

func (m *Maintainer) refresh(ctx context.Context, ec *algebra.EvalContext, w *warehouse.Warehouse, u *catalog.Update) (RefreshStats, error) {
	stats := RefreshStats{Changed: make(map[string]int)}
	// Fail before any delta work: a sealed warehouse (read-only replica)
	// would refuse the commit below anyway, and checking here makes the
	// typed error surface before any evaluation cost is paid.
	if w.Sealed() {
		return stats, warehouse.ErrReadOnlyReplica
	}
	vst := &VirtualState{resolve: m.resolve, w: w, ec: ec}
	nu, err := normalizeUpdate(u, vst, m.comp)
	if err != nil {
		return stats, cancelOr(ec, err)
	}
	stats.Update, stats.UpdateSize = nu, nu.Size()

	// All deltas or none. Every changed relation's delta is applied to a
	// copy that shares the relation's pages (copy-on-write apply set); an
	// error or cancellation anywhere before the final commit discards the
	// copies and leaves the warehouse bitwise unchanged, so a failed
	// refresh can simply be retried with the same update.
	commit := make([]staged, len(m.targets))
	touched := nu.Touched()
	p, seen := newPropagation(vst, nu, m.contained), ec.Stats()
	for i, tg := range m.targets {
		if err := ec.Err(); err != nil {
			return stats, err
		}
		none := m.none[i] // nil: the update reaches the target
		if slices.ContainsFunc(touched, m.bases[i].Has) {
			none = nil
		}
		if commit[i], err = stageTarget(ctx, w, tg, none, p, &seen); err != nil {
			return stats, cancelOr(ec, err)
		}
	}
	stats.Spans = make([]RefreshSpan, 0, len(commit))
	for _, c := range commit {
		if err := ec.Err(); err != nil {
			return stats, err
		}
		// Crash point between delta applications: the fault-injection
		// tests arm it at every position k and assert rollback.
		if err := chaos.Point("refresh.apply"); err != nil {
			return stats, fmt.Errorf("maintain: apply %s: %w", c.span.Target, err)
		}
		stats.Changed[c.span.Target] = c.span.Applied
		stats.CopiedBytes += c.copied
		stats.Spans = append(stats.Spans, c.span)
	}
	// Consumers see the post-state copies before anything is installed:
	// a consumer error aborts the refresh with the warehouse untouched.
	// (Consumers with their own materialized state must tolerate a
	// retried delta; package aggregate's tables are rebuilt from the
	// warehouse on recovery, so this holds.)
	for _, c := range commit {
		for _, consumer := range m.consumers {
			if err := consumer.Consume(c.span.Target, c.exact, c.post); err != nil {
				return stats, fmt.Errorf("maintain: consumer for %s: %w", c.span.Target, err)
			}
		}
	}
	changed := make(map[string]*relation.Relation)
	for _, c := range commit {
		if c.span.Applied > 0 {
			changed[c.span.Target] = c.post
		}
	}
	// Only a seal flipped since the check above can fail here.
	if err := w.Commit(changed); err != nil {
		return stats, err
	}
	stats.RestrictedLookups, stats.FullReconstructions = vst.nRestricted, vst.nFull
	return stats, nil
}

// RefreshByRecompute is the semantic reference implementation of Theorem
// 4.1: reconstruct all base relations through W⁻¹, apply the update, and
// re-materialize every warehouse relation from scratch. It is
// update-independent too (no source access) but pays full recomputation;
// experiment E12 benchmarks the two against each other, and the test suite
// checks they agree tuple-for-tuple.
func (m *Maintainer) RefreshByRecompute(w *warehouse.Warehouse, u *catalog.Update) error {
	bases, err := w.ReconstructBases()
	if err != nil {
		return err
	}
	db := m.comp.Database()
	st := db.NewState()
	for name, r := range bases {
		for t := range r.All() {
			cur, _ := st.Relation(name)
			if _, err := st.Insert(name, alignTuple(r, cur, t)); err != nil {
				return err
			}
		}
	}
	if err := u.Apply(st); err != nil {
		return err
	}
	return w.Initialize(st)
}

// normalizeUpdate normalizes the update against the virtual pre-state
// (inserts already present are dropped, deletes of absent tuples are
// dropped, insert+delete pairs become no-ops) without ever touching the
// real sources. Membership of the updated tuples is all that matters, so
// the pre-state is read once per touched base, restricted by the update's
// tuples — the cost is proportional to the update, not to the database —
// and a side of the update that is already exact is kept as it is.
func normalizeUpdate(u *catalog.Update, vst *VirtualState, comp *core.Complement) (*catalog.Update, error) {
	db := comp.Database()
	out := catalog.NewUpdate()
	for _, name := range u.Touched() {
		if _, ok := db.Schema(name); !ok {
			return nil, fmt.Errorf("maintain: update references unknown relation %q: %w", name, algebra.ErrUnknownRelation)
		}
		ins, del := u.Inserts(name), u.Deletes(name)
		probe := ins
		switch {
		case ins.IsEmpty():
			probe = del
		case !del.IsEmpty():
			var err error
			if probe, err = relation.Union(ins, del); err != nil {
				return nil, err
			}
		}
		if probe.IsEmpty() {
			continue
		}
		cur, err := vst.RelationRestricted(name, probe)
		if err != nil {
			return nil, err
		}
		// Inserts absent from the pre-state and not deleted as well; deletes
		// present there and not re-inserted.
		nIns, err := keep(ins, cur, false, del)
		if err != nil {
			return nil, err
		}
		nDel, err := keep(del, cur, true, ins)
		if err != nil {
			return nil, err
		}
		out.Put(name, nIns, nDel)
	}
	return out, nil
}

// keep returns the tuples of r whose membership in cur is member and that
// other (nil: none) does not hold: r itself when that is all of them.
func keep(r, cur *relation.Relation, member bool, other *relation.Relation) (*relation.Relation, error) {
	if r.IsEmpty() {
		return nil, nil
	}
	r, err := relation.Keep(r, cur, member)
	if err != nil || other.IsEmpty() {
		return r, err
	}
	return relation.Keep(r, other, false)
}
