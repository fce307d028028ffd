package main

// The carried-answer check (DESIGN §13): a stored answer Q(d), computed at
// an earlier state generation, is served at the published one when the
// commits since provably leave it unchanged — Theorem 4.1 applied to Q
// over W⁻¹(w) instead of to a view. The check pays only for the tuples that
// can reach the answer, and never more than the evaluation it replaces.

import (
	"context"
	"encoding/binary"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	dwc "dwcomplement"
	"dwcomplement/internal/algebra"
	"dwcomplement/internal/relation"
)

// changeRingSize is how many commits back a stored answer can be carried
// forward (carries): the ring keeps the last changeRingSize commits'
// normalized updates. The process benchmark's mixed_rw repeats a union
// text every 30–80 commits and a join text every ≈ 100; past 256 commits a
// check would read more tuples than most evaluations do.
const changeRingSize = 256

// change is one commit's slot in the change ring: the state generation it
// published and the normalized update it applied, exact against the state
// of generation gen-1, as the relations it changed.
type change struct {
	gen  uint64
	rels []changedRel
}

// changedRel is what a commit inserted into and deleted from one base
// relation (nil for none).
type changedRel struct {
	name     string
	ins, del *relation.Relation
}

// changeRing holds the updates of the last changeRingSize commits, each in
// slot gen mod changeRingSize. The committer stores its slot, under s.mu,
// before it publishes the generation; readers load slots with no lock. A
// slot holding another generation — overwritten since, or never written
// because the state was replaced whole (bootstrapFollower) — is a gap. The
// updates are never written again, so checks read their pages in place.
type changeRing [changeRingSize]atomic.Pointer[change]

// record stores the update that generation gen applied.
func (r *changeRing) record(gen uint64, u *dwc.Update) {
	c := &change{gen: gen}
	for _, name := range u.Touched() {
		c.rels = append(c.rels, changedRel{name, u.Inserts(name), u.Deletes(name)})
	}
	r[gen%changeRingSize].Store(c)
}

// at returns the change that generation gen made, or nil for a gap.
func (r *changeRing) at(gen uint64) *change {
	if c := r[gen%changeRingSize].Load(); c != nil && c.gen == gen {
		return c
	}
	return nil
}

// The carry check's prices, in fixed units of ≈ 10 ns, so that a check and
// the evaluation it replaces are charged alike and a check's verdict
// depends on its inputs alone. Calibrated on BenchmarkAnswerPath (100k-row
// star, 2 vCPU): a /query miss costs ≈ 6.5 µs whatever it reads (the point
// shape), and ≈ 100 ns more per row it scans, probes or emits (the union
// shape; a join's rows cost more, so its price is low); testing a recorded
// tuple against the compiled relevance condition costs ≈ 40 ns with its
// share of the walk (point …/carried/120), composing one ≈ 250 ns more
// (union …/carried/40), and the propagation reads a row for about what an
// evaluation does. A vectorized σ reads a row for ≈ 2 ns (scan/paris/miss:
// 168 µs for 101 k rows its scan read), so the rows it reads are priced
// apart.
const (
	costEvalFixed = 650 // any evaluation, whatever it reads
	costEvalRow   = 10  // per row an evaluation scans, probes or emits
	costScanRows  = 5   // rows a vectorized σ reads per unit
	costTest      = 4   // per recorded tuple tested
	costCompose   = 25  // per relevant tuple composed into the net
	costRead      = 10  // per row the propagation scans
)

// evalCost is what an evaluation with these counters cost, in carry units:
// the rows its σs read by a vectorized scan at the scan's rate, every other
// row it scanned, probed or emitted at costEvalRow.
func evalCost(st *dwc.EvalStats) int64 {
	scan := int64(0)
	for _, n := range st.Plan {
		scan += scanRows(n)
	}
	return costEvalFixed + costEvalRow*(st.Scanned+st.Probed+st.Emitted-scan) + scan/costScanRows
}

// scanRows returns the rows the σs of the plan tree read by a vectorized
// scan: each one's scanned rows, and the rows a stored relation read whole
// under it handed it.
func scanRows(n *dwc.PlanNode) int64 {
	rows := int64(0)
	for _, c := range n.Children {
		rows += scanRows(c)
		if n.Op == "select" && !c.Restricted && strings.HasPrefix(c.Op, "base(") {
			rows += c.Emitted
		}
	}
	if n.Op == "select" {
		rows += n.Scanned
	}
	return rows
}

// fallback says why a carry check did not carry: a gap in the change ring,
// a check that would cost more than the evaluation it replaces, or a Δ(Q)
// that is not empty. /stats reports the counts under these names.
type fallback uint8

const (
	carried fallback = iota
	fellBackGap
	fellBackCost
	fellBackChanged
	numFallbacks
)

var fallbackNames = [numFallbacks]string{"", "gap", "cost", "changed"}

// carryPlan is what the carry checks of one query text share, built on its
// first check. expr is Q optimized with ⋈ distributed over ∪, the
// expression Δ(Q) is propagated over: a change to one branch of a union
// under a join then reads through its own join alone. bases holds, for
// each base Q reads, the disjunction of the σs that sit directly on its
// occurrences in expr (true for a bare occurrence). A recorded tuple that
// fails it reaches no occurrence, so it cannot change Q(d) whatever else
// changed: a per-tuple filter commutes with composition, and the rule
// needs no key, IND or domain constraint.
type carryPlan struct {
	expr  dwc.Expr
	bases []carryBase
	// walks pools the checks' scratch: a compiled predicate keeps scratch
	// for one goroutine at a time, and the plan is shared by every reader.
	walks sync.Pool // *carryWalk
}

// base returns the index of the named base in p.bases, or -1.
func (p *carryPlan) base(name string) int {
	for i, b := range p.bases {
		if b.name == name {
			return i
		}
	}
	return -1
}

// carryBase is one base of a carry plan and its relevance condition, over
// its schema's attribute order, which every committed update's relations
// are in (catalog.Update builds them from the schema).
type carryBase struct {
	name  string
	attrs []string
	cond  algebra.Cond
}

// newCarryPlan builds the carry plan of q over db. A distributed plan that
// would grow past 4× q's size stays undistributed.
func newCarryPlan(q dwc.Expr, db *dwc.Database) *carryPlan {
	expr := algebra.Optimize(q, db)
	if d := algebra.DistributeJoins(expr); algebra.Size(d) <= 4*algebra.Size(q) {
		expr = d
	}
	// Walk is pre-order: a σ is met before the base it sits on.
	direct := map[*algebra.Base]algebra.Cond{}
	conds := map[string]algebra.Cond{}
	algebra.Walk(expr, func(n algebra.Expr) {
		switch n := n.(type) {
		case *algebra.Select:
			if b, ok := n.Input.(*algebra.Base); ok {
				direct[b] = n.Cond
			}
		case *algebra.Base:
			c, ok := direct[n]
			switch prev, seen := conds[n.Name]; {
			case !ok || algebra.IsTrivial(c) || seen && algebra.IsTrivial(prev):
				conds[n.Name] = algebra.True{}
			case seen:
				conds[n.Name] = &algebra.Or{L: prev, R: c}
			default:
				conds[n.Name] = c
			}
		}
	})
	p := &carryPlan{expr: expr}
	for _, name := range slices.Sorted(maps.Keys(conds)) {
		sc, _ := db.Schema(name)
		p.bases = append(p.bases, carryBase{name: name, attrs: sc.AttrNames(), cond: conds[name]})
	}
	p.walks.New = func() any {
		w := &carryWalk{preds: make([]relation.BatchPred, len(p.bases)), net: map[string]netTuple{}}
		for i, b := range p.bases {
			w.preds[i] = algebra.CompileBatchPred(b.cond, b.attrs)
		}
		return w
	}
	return p
}

// carryWalk is one check's scratch: the plan's compiled relevance
// predicates, the buffers they and the row keys use, and the net
// composition of the relevant tuples so far. It is reused from check to
// check, so the walk allocates nothing per commit.
type carryWalk struct {
	preds []relation.BatchPred // by plan base
	sel   []int32
	key   []byte
	net   map[string]netTuple // by base index and row key
	// tested and composed count the recorded tuples the check read and
	// the relevant ones among them, folded into the net.
	tested, composed int64
}

// netTuple is a relevant tuple's net change since the stored answer: +1
// inserted, −1 deleted. Every commit is exact against the state before it,
// so a tuple's changes alternate and sum to −1, 0 or +1; at 0 — an insert
// later deleted, a delete later re-inserted — it is not in the net, and
// its entry stays for the next change to it. The row stays where the
// commit recorded it (row k of a page) until the net is built.
type netTuple struct {
	base int
	row  relation.Batch
	k    int
	sign int8
}

// commit folds what a recorded commit changed in the plan's bases.
func (w *carryWalk) commit(p *carryPlan, c *change) {
	for _, r := range c.rels {
		if i := p.base(r.name); i >= 0 {
			w.fold(i, r.ins, +1)
			w.fold(i, r.del, -1)
		}
	}
}

// fold tests r, the tuples a commit inserted into (sign +1) or deleted from
// (−1) base i, and composes those that pass into the net.
func (w *carryWalk) fold(i int, r *relation.Relation, sign int8) {
	if r == nil {
		return
	}
	for pi := range r.NumPages() {
		b := r.Page(pi)
		w.tested += int64(b.Len())
		w.sel = w.preds[i](b, w.sel[:0])
		for _, k := range w.sel {
			w.composed++
			w.key = b.AppendKey(binary.AppendUvarint(w.key[:0], uint64(i)), int(k))
			n, ok := w.net[string(w.key)]
			if !ok {
				n = netTuple{base: i, row: b, k: int(k)}
			}
			n.sign += sign
			w.net[string(w.key)] = n
		}
	}
}

// reverse returns the reverse of the net: the update that takes the
// published state back to the stored answer's on the relevant tuples.
func (w *carryWalk) reverse(p *carryPlan, db *dwc.Database) (*dwc.Update, error) {
	rev := dwc.NewUpdate()
	for _, n := range w.net {
		if n.sign == 0 {
			continue
		}
		op := rev.Insert
		if n.sign > 0 {
			op = rev.Delete
		}
		t := make(relation.Tuple, n.row.NumCols())
		for c := range t {
			t[c] = n.row.Value(c, n.k)
		}
		if err := op(p.bases[n.base].name, db, t); err != nil {
			return nil, err
		}
	}
	return rev, nil
}

// spent is what the walk has cost so far, in carry units.
func (w *carryWalk) spent() int64 {
	return costTest*w.tested + costCompose*w.composed
}

// carryCheck is what one carry check found, and the tuples it tested and
// composed.
type carryCheck struct {
	why              fallback
	tested, composed int64
}

// carries checks whether e's stored answer, Q(d) at generation e.gen, is
// also Q(d) at v, so it can be served without evaluating. Every commit
// since e.gen must be in the change ring. Each recorded tuple of Q's bases
// is tested against its base's relevance condition; those that pass fold
// into one net update, exact against e.gen's state on the bases' relevant
// tuples. An empty net proves Q(d) unchanged. Otherwise its reverse — exact
// against v's state, so no older version is pinned — is propagated over
// the carry plan and W⁻¹(v.w) (Theorem 4.1), and an empty Δ(Q) proves Q(d)
// unchanged: the tuples left out reach no σ of Q, so Q at v minus the
// relevant changes is Q at e.gen. The check is charged its tests, its
// compositions and the propagation's reads against e.cost, and falls back
// to evaluation once past it. It writes nothing but the plan, once.
func (s *server) carries(ctx context.Context, e queryEntry, v *version) carryCheck {
	if e.gen >= v.gen || v.gen-e.gen > changeRingSize {
		return carryCheck{why: fellBackGap}
	}
	db := s.comp.Database()
	p := e.carryPlan(db)
	w := p.walks.Get().(*carryWalk)
	defer func() {
		clear(w.net)
		w.tested, w.composed = 0, 0
		p.walks.Put(w)
	}()
	check := func(why fallback) carryCheck { return carryCheck{why, w.tested, w.composed} }
	for g := e.gen + 1; g <= v.gen; g++ {
		c := s.changes.at(g)
		if c == nil {
			return check(fellBackGap)
		}
		w.commit(p, c)
		if w.spent() >= e.cost {
			return check(fellBackCost)
		}
	}
	if w.composed == 0 {
		return check(carried)
	}
	rev, err := w.reverse(p, db)
	switch {
	case err != nil:
		return check(fellBackChanged)
	case rev.IsEmpty():
		return check(carried)
	}
	budget := dwc.Budget{Scanned: max((e.cost-w.spent())/costRead, 1)}
	d, err := dwc.AnswerDelta(dwc.WithBudget(ctx, budget), s.comp, v.w, p.expr, rev)
	switch {
	case err != nil: // over the budget, or out of the request's time
		return check(fellBackCost)
	case !d.IsEmpty():
		return check(fellBackChanged)
	}
	return check(carried)
}
