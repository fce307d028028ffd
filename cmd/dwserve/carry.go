package main

// The carried-answer check (DESIGN §13): a stored answer Q(d), computed at
// an earlier state generation, is served at the published one when the
// commits since provably leave it unchanged — Theorem 4.1 applied to Q
// over W⁻¹(w) instead of to a view. Relevance is decided once, at commit,
// where the update is hot: every registered carry plan is tested against
// the commit's normalized update, and only the tuples that can reach its
// answer are logged. A read composes and propagates those alone, and never
// pays more than the evaluation it replaces.

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	dwc "dwcomplement"
	"dwcomplement/internal/algebra"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/relation"
)

// The carry check's prices, in fixed units of ≈ 10 ns, so that a check and
// the evaluation it replaces are charged alike and a verdict depends on its
// inputs alone. Calibrated on BenchmarkAnswerPath (100k-row star, 2 vCPU):
// a /query miss costs ≈ 6.5 µs whatever it reads (the point shape), and
// ≈ 100 ns more per row it scans, probes or emits (the union shape; a
// join's rows cost more, so its price is low). A vectorized σ reads a row
// for ≈ 2 ns (scan/paris/miss: 168 µs for 101 k rows its scan read), so the
// rows it reads are priced apart. A commit's pass tests a tuple against a
// plan for ≈ 40 ns where it must look the tuple up in a key set, and for
// less where a σ decides (pass: 20 tuple–plan tests and 4 index lookups in
// ≈ 3 µs, most of it per plan, not per tuple). Composing a logged tuple
// costs ≈ 250 ns (a union text carried across 40 churn commits, with every
// order tuple composed), and the propagation reads a row for about what an
// evaluation does.
const (
	costEvalFixed = 650 // any evaluation, whatever it reads
	costEvalRow   = 10  // per row an evaluation scans, probes or emits
	costScanRows  = 5   // rows a vectorized σ reads per unit
	costTest      = 4   // per tuple a commit tests against a plan
	costCompose   = 25  // per logged tuple a read composes into the net
	costRead      = 10  // per row the propagation scans
)

// keySetRows caps a key set: a side that selects more keys restricts
// nothing. keyOverhead is what one key costs beside its bytes — its string
// header and map slot — in the bytes a key set counts against the query
// cache's cap.
const (
	keySetRows  = 4096
	keyOverhead = 48
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

// fallback says why a carry check did not carry: the text's plan was not
// tested on every commit since the stored answer (never registered, or
// registered later, overflowed or reset), the logged tuples would cost more
// than the evaluation they replace, or Δ(Q) is not empty. /stats reports
// the counts under these names. readBehind is no fallback: the reader's
// version is older than the stored answer, which it neither carries nor
// replaces.
type fallback uint8

const (
	carried fallback = iota
	fellBackUntracked
	fellBackCost
	fellBackChanged
	numFallbacks
	readBehind = numFallbacks
)

var fallbackNames = [numFallbacks]string{"", "untracked", "cost", "changed"}

// carryPlan is what the carry checks of one query text share, built on its
// first check. expr is Q optimized with ⋈ distributed over ∪, the
// expression Δ(Q) is propagated over: a change to one branch of a union
// under a join then reads through its own join alone. bases holds each base
// Q reads with its relevance condition, sides the σ'd join sides whose key
// sets restrict some of them. Once registered, every commit tests the plan and logs
// the tuples that pass into log, which its readers read with no lock.
type carryPlan struct {
	expr  dwc.Expr
	bases []carryBase
	sides []carrySide

	// Under the registry's lock: the compiled test of the plan's current
	// registration (nil while unregistered) and the last commit that ran it.
	test    *carryTest
	passGen uint64

	log      atomic.Pointer[carryLog] // nil while unregistered
	budget   atomic.Int64             // the stored answer's price, in carry units
	entryGen atomic.Uint64            // the stored answer's generation: the log keeps no tuple at or below it
	keyBytes atomic.Int64             // the bytes of the registration's key sets
	evicted  atomic.Bool              // the text left the query cache: never registered again
}

// carryBase is one base of a carry plan, over its schema's attribute order,
// which every committed update's relations are in (catalog.Update builds
// them from the schema). cond is the disjunction of the σs that sit
// directly on its occurrences (true for a bare one): a tuple that fails it
// reaches no occurrence, so it cannot change Q(d) whatever else changed —
// a per-tuple filter commutes with composition. A base Q reads once may
// also have to meet key sets: sides are those its tuples must be in.
type carryBase struct {
	name  string
	id    int // its place in the database's relations, which indexes the registry
	attrs []string
	cond  algebra.Cond
	guard *carryGuard // nil: cond pins no attribute
	sides []sideRef
}

// carryGuard is an attribute that cond pins to a constant — it is, or is a
// conjunct of, attr = c — so a tuple whose value is not c fails cond: the
// column and the canonical encoding of c. Only constants whose encoding
// every value equal to them shares qualify: strings, and ints a float
// represents exactly.
type carryGuard struct {
	col int
	key string
}

// guardOf returns the guard of cond over attrs, or nil.
func guardOf(cond algebra.Cond, attrs []string) *carryGuard {
	switch c := cond.(type) {
	case *algebra.And:
		if g := guardOf(c.L, attrs); g != nil {
			return g
		}
		return guardOf(c.R, attrs)
	case *algebra.Cmp:
		attr, val := c.Left, c.Right
		if !attr.IsAttr {
			attr, val = val, attr
		}
		if c.Op != algebra.OpEq || !attr.IsAttr || val.IsAttr {
			return nil
		}
		switch v := val.Val; v.Kind() {
		case relation.KindString:
		case relation.KindInt:
			if int64(float64(v.AsInt())) != v.AsInt() {
				return nil
			}
		default:
			return nil
		}
		return &carryGuard{col: slices.Index(attrs, attr.Attr), key: string(val.Val.AppendKey(nil))}
	}
	return nil
}

// sideRef names a key set and the occurrence's columns that must be in it.
type sideRef struct {
	side int
	cols []int
}

// carrySide is a join side S with a σ: an occurrence joined with S, reached
// through σ, ⋈ and ∪ alone and read by no base of S, changes Q(d) only
// through a tuple t with t[X] ∈ π_X(S), X the attributes they share. Its
// key set π_X(S) is evaluated once per registration over W⁻¹(w), and holds
// while no commit changes one of S's bases relevantly.
type carrySide struct {
	expr  dwc.Expr
	attrs []string // X, sorted
	bases []string // S's bases
}

// newCarryPlan builds the carry plan of q over db. A distributed plan that
// would grow past 4× q's size stays undistributed.
func newCarryPlan(q dwc.Expr, db *dwc.Database) *carryPlan {
	expr := algebra.Optimize(q, db)
	if d := algebra.DistributeJoins(expr); algebra.Size(d) <= 4*algebra.Size(q) {
		expr = d
	}
	p := &carryPlan{expr: expr}
	conds := map[string]algebra.Cond{}
	occurs := map[string]int{}
	sides := map[string][]sideRef{}
	sideID := map[string]int{}
	occur := func(name string, cond algebra.Cond, outer []algebra.Expr) {
		occurs[name]++
		conds[name] = orCond(conds[name], cond)
		sc, _ := db.Schema(name)
		for _, s := range outer {
			sa, err := algebra.Attrs(s, db)
			if err != nil || algebra.Bases(s).Has(name) {
				continue
			}
			x := sa.Intersect(sc.AttrSet()).Sorted()
			if len(x) == 0 {
				continue
			}
			key := s.String() + "\x00" + strings.Join(x, "\x00")
			id, ok := sideID[key]
			if !ok {
				id = len(p.sides)
				sideID[key] = id
				p.sides = append(p.sides, carrySide{expr: s, attrs: x, bases: algebra.Bases(s).Sorted()})
			}
			cols := make([]int, len(x))
			for i, a := range x {
				cols[i] = slices.Index(sc.AttrNames(), a)
			}
			sides[name] = append(sides[name], sideRef{id, cols})
		}
	}
	// outer holds the σ'd sides of the joins above e that e reaches through
	// σ, ⋈ and ∪ alone: those keep a tuple's values as they are.
	var visit func(e algebra.Expr, outer []algebra.Expr)
	visit = func(e algebra.Expr, outer []algebra.Expr) {
		switch n := e.(type) {
		case *algebra.Base:
			occur(n.Name, algebra.True{}, outer)
		case *algebra.Select:
			if b, ok := n.Input.(*algebra.Base); ok {
				occur(b.Name, n.Cond, outer)
			} else {
				visit(n.Input, outer)
			}
		case *algebra.Join:
			for i, in := range n.Inputs {
				inner := slices.Clip(outer)
				for j, s := range n.Inputs {
					if j != i && hasSelect(s) {
						inner = append(inner, s)
					}
				}
				visit(in, inner)
			}
		case *algebra.Union:
			visit(n.L, outer)
			visit(n.R, outer)
		case *algebra.Diff:
			visit(n.L, nil)
			visit(n.R, nil)
		case *algebra.Project:
			visit(n.Input, nil)
		case *algebra.Rename:
			visit(n.Input, nil)
		case *algebra.Empty:
		default:
			panic(fmt.Sprintf("carry plan: unknown node %T", e))
		}
	}
	visit(expr, nil)
	names := db.Names()
	for _, name := range slices.Sorted(maps.Keys(conds)) {
		sc, _ := db.Schema(name)
		b := carryBase{name: name, id: slices.Index(names, name), attrs: sc.AttrNames(), cond: conds[name]}
		b.guard = guardOf(b.cond, b.attrs)
		for _, r := range sides[name] { // key sets restrict an only occurrence, where its σ does not decide them
			if occurs[name] == 1 && (b.guard == nil || !slices.Equal(r.cols, []int{b.guard.col})) {
				b.sides = append(b.sides, r)
			}
		}
		p.bases = append(p.bases, b)
	}
	return p
}

// base returns the index of the named base in p.bases.
func (p *carryPlan) base(name string) int {
	return slices.IndexFunc(p.bases, func(b carryBase) bool { return b.name == name })
}

// hasSelect reports whether e holds a σ.
func hasSelect(e algebra.Expr) bool {
	found := false
	algebra.Walk(e, func(n algebra.Expr) {
		_, ok := n.(*algebra.Select)
		found = found || ok
	})
	return found
}

// orCond returns a ∨ b, with a nil a standing for false and true absorbing.
func orCond(a, b algebra.Cond) algebra.Cond {
	switch {
	case a == nil:
		return b
	case algebra.IsTrivial(a) || algebra.IsTrivial(b):
		return algebra.True{}
	}
	return &algebra.Or{L: a, R: b}
}

// carryTest is one registration of a plan: its relevance conditions
// compiled, the key sets in use, and the scratch the commits that run it
// reuse, so a pass allocates nothing. Only the committer runs it, under the
// registry's lock.
type carryTest struct {
	preds   []relation.BatchPred // by plan base: its cond
	refs    [][]sideRef          // by plan base: the key sets in use among its sides
	sets    []keySet             // by plan side; nil keys: not in use
	keyed   bool                 // some base has key sets in use
	bytes   int64                // the sets' bytes
	sel     []int32
	key     []byte
	pending []loggedTuple
}

// keySet is π_X(S) for one side, by the canonical encoding of the X values.
type keySet struct {
	keys  map[string]struct{}
	bytes int64
}

// newTest compiles p's test over w's state. Each side some base must meet
// has its key set evaluated over W⁻¹(w) while room bytes allow; a side
// whose set cannot be had — its evaluation failed, it holds more than
// keySetRows keys, or it would not fit — restricts nothing.
func (p *carryPlan) newTest(ctx context.Context, w *dwc.Warehouse, room int64) *carryTest {
	t := &carryTest{preds: make([]relation.BatchPred, len(p.bases)), refs: make([][]sideRef, len(p.bases)), sets: make([]keySet, len(p.sides))}
	used := make([]bool, len(p.sides))
	for _, b := range p.bases {
		for _, r := range b.sides {
			used[r.side] = true
		}
	}
	for i, sd := range p.sides {
		if !used[i] {
			continue
		}
		if ks, ok := evalKeySet(ctx, w, sd); ok && t.bytes+ks.bytes <= room {
			t.sets[i] = ks
			t.bytes += ks.bytes
		}
	}
	for i, b := range p.bases {
		t.preds[i] = algebra.CompileBatchPred(b.cond, b.attrs)
		for _, r := range b.sides {
			if t.sets[r.side].keys != nil {
				t.refs[i] = append(t.refs[i], r)
				t.keyed = true
			}
		}
	}
	return t
}

// evalKeySet evaluates a side's key set over W⁻¹(w).
func evalKeySet(ctx context.Context, w *dwc.Warehouse, sd carrySide) (keySet, bool) {
	q, err := w.TranslateQuery(&algebra.Project{Input: sd.expr, Attrs: sd.attrs})
	if err != nil {
		return keySet{}, false
	}
	rows, err := dwc.EvalExpr(ctx, q, w)
	if err != nil || rows.Len() > keySetRows {
		return keySet{}, false
	}
	r := rows.Relation()
	cols := make([]int, len(sd.attrs))
	for i, a := range sd.attrs {
		cols[i] = slices.Index(r.Attrs(), a)
	}
	ks := keySet{keys: make(map[string]struct{}, r.Len())}
	var key []byte
	for pi := range r.NumPages() {
		b := r.Page(pi)
		for k := range b.Len() {
			key = b.AppendColsKey(key[:0], k, cols)
			if _, ok := ks.keys[string(key)]; !ok {
				ks.keys[string(key)] = struct{}{}
				ks.bytes += int64(len(key)) + keyOverhead
			}
		}
	}
	return ks, true
}

// relevant returns the rows of page b of base i that can reach the answer,
// and how many passed its σs before the key sets were consulted.
func (t *carryTest) relevant(i int, b relation.Batch) (sel []int32, passed int) {
	t.sel = t.preds[i](b, t.sel[:0])
	passed = len(t.sel)
	if refs := t.refs[i]; len(refs) > 0 {
		kept := t.sel[:0]
		for _, k := range t.sel {
			if t.inSets(b, int(k), refs) {
				kept = append(kept, k)
			}
		}
		t.sel = kept
	}
	return t.sel, passed
}

// inSets reports whether row k's columns are in every referenced key set.
func (t *carryTest) inSets(b relation.Batch, k int, refs []sideRef) bool {
	for _, r := range refs {
		t.key = b.AppendColsKey(t.key[:0], k, r.cols)
		if _, ok := t.sets[r.side].keys[string(t.key)]; !ok {
			return false
		}
	}
	return true
}

// touches reports whether a tuple of r passes base i's σs.
func (t *carryTest) touches(i int, r *relation.Relation) bool {
	for pi := range r.NumPages() {
		if t.sel = t.preds[i](r.Page(pi), t.sel[:0]); len(t.sel) > 0 {
			return true
		}
	}
	return false
}

// carryLog is what a registered plan's readers read: every commit after
// from tested the plan, and items holds, in commit order, the tuples they
// found relevant and the stored answer may not have seen yet. A log is
// never written once published: a commit that logs publishes a new one,
// which may extend the same backing array past every published length.
type carryLog struct {
	from  uint64
	items []loggedTuple
}

// loggedTuple is a relevant tuple a commit changed: row k of a page of the
// commit's update (never written again), inserted (+1) or deleted (−1)
// from base by generation gen.
type loggedTuple struct {
	gen  uint64
	row  relation.Batch
	k    int32
	base int16
	sign int8
}

// passOutcome is what a commit's pass did to one plan.
type passOutcome uint8

const (
	passKept     passOutcome = iota
	passOverflow             // past the plan's budget: unregistered
	passReset                // a key set's side changed: unregistered
)

// commit runs the plan's test on the update generation g applies, whose
// inserted and deleted tuples are touched[id] for each base. A key
// set's side is tested first: a relevant change to it resets the plan, so
// no tuple is tested against a key set that no longer holds. The tuples
// that pass are logged, beside those of earlier commits the stored answer
// has not seen. The plan overflows once the commit would test more tuples,
// or the log hold more, than the stored answer's price pays for.
func (p *carryPlan) commit(g uint64, touched [][2]*relation.Relation, st *carryStats) passOutcome {
	t := p.test
	for si, sd := range p.sides {
		if t.sets[si].keys == nil {
			continue
		}
		for _, name := range sd.bases {
			bi := p.base(name)
			for _, r := range touched[p.bases[bi].id] {
				if r != nil && t.touches(bi, r) {
					return passReset
				}
			}
		}
	}
	budget := max(p.budget.Load(), costEvalFixed)
	tested := int64(0)
	t.pending = t.pending[:0]
	for i := range p.bases {
		for side, r := range touched[p.bases[i].id] {
			if r == nil {
				continue
			}
			sign := int8(1 - 2*side) // inserted, deleted
			for pi := range r.NumPages() {
				pg := r.Page(pi)
				if tested += int64(pg.Len()); costTest*tested > budget {
					return passOverflow
				}
				sel, passed := t.relevant(i, pg)
				st.Tested += int64(pg.Len())
				st.KeySetHits += int64(passed - len(sel))
				st.Logged += int64(len(sel))
				for _, k := range sel {
					t.pending = append(t.pending, loggedTuple{gen: g, row: pg, k: k, base: int16(i), sign: sign})
				}
			}
		}
	}
	if len(t.pending) == 0 {
		return passKept
	}
	old := p.log.Load()
	seen := p.entryGen.Load()
	start := 0
	for start < len(old.items) && old.items[start].gen <= seen {
		start++
	}
	held := len(old.items) - start + len(t.pending)
	if costCompose*int64(held) > budget {
		return passOverflow
	}
	items := old.items
	if start > 0 {
		items = append(make([]loggedTuple, 0, held), old.items[start:]...)
	}
	p.log.Store(&carryLog{from: max(old.from, seen), items: append(items, t.pending...)})
	st.LoggedTuples += int64(held - len(old.items))
	return passKept
}

// carryStats is what /stats reports of the registered plans: how many, the
// tuples their logs hold, their key sets and the sets' bytes; the
// registrations that overflowed or were reset (a key set's side changed, or
// a follower bootstrap replaced the state); and, over the commits, the
// tuple–plan pairs a plan's test ran on, those an equality index answered
// by one lookup, the tuples logged and those kept out of a log by a key
// set alone.
type carryStats struct {
	Registered   int64 `json:"registered"`
	LoggedTuples int64 `json:"loggedTuples"`
	KeySets      int64 `json:"keySets"`
	KeySetBytes  int64 `json:"keySetBytes"`
	Overflows    int64 `json:"overflows"`
	Resets       int64 `json:"resets"`
	Tested       int64 `json:"tested"`
	Indexed      int64 `json:"indexed"`
	Logged       int64 `json:"logged"`
	KeySetHits   int64 `json:"keySetHits"`
}

// carryRegistry holds the registered carry plans by the bases they read,
// indexed by carryBase.id: a plan whose σ on a base pins an attribute to a
// constant is found through that base's equality index on the attribute,
// by the tuples that hold the constant; the others are tested on every
// tuple of the base (scan). gen is the last generation whose commit ran
// the pass: a plan registered now is tested from the next commit on, so it
// is tracked from gen. The committer runs the pass under s.mu before it
// publishes the generation; readers register and unregister plans under
// mu alone.
type carryRegistry struct {
	mu       lockrank.Mutex[lockrank.CarryPlans]
	gen      uint64
	plans    []*carryPlan
	scan     [][]*carryPlan // by id
	guards   [][]*carryIndex
	names    []string                // by id
	touched  [][2]*relation.Relation // a pass's scratch: by id, the tuples the update inserts and deletes
	key      []byte                  // a pass's scratch
	drop     []*carryPlan            // a pass's scratch: the plans it unregisters
	stats    carryStats
	keyBytes atomic.Int64 // stats.KeySetBytes, for the query cache's cap without the lock
}

// carryIndex is one base's equality index on one column: the plans whose σ
// on the base pins it, by the constant's canonical encoding.
type carryIndex struct {
	cols  []int // the column, as AppendColsKey takes it
	plans map[string][]*carryPlan
	n     int
}

// pass tests every registered plan that a tuple of u can reach, once, for
// generation g.
func (r *carryRegistry) pass(g uint64, u *dwc.Update) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen = g
	if u == nil {
		return
	}
	for id, name := range r.names {
		if name != "" {
			r.touched[id] = [2]*relation.Relation{u.Inserts(name), u.Deletes(name)}
		}
	}
	defer clear(r.touched)
	for id, rels := range r.touched {
		if rels == [2]*relation.Relation{} {
			continue
		}
		for _, p := range r.scan[id] {
			r.visit(p, g)
		}
		for _, ix := range r.guards[id] {
			for _, rel := range rels {
				if rel == nil {
					continue
				}
				for pi := range rel.NumPages() {
					pg := rel.Page(pi)
					for k := range pg.Len() {
						r.key = pg.AppendColsKey(r.key[:0], k, ix.cols)
						r.stats.Indexed += int64(ix.n)
						for _, p := range ix.plans[string(r.key)] {
							r.visit(p, g)
						}
					}
				}
			}
		}
	}
	r.unregisterDropped()
}

// visit runs p's test on the commit of generation g, once.
func (r *carryRegistry) visit(p *carryPlan, g uint64) {
	if p.passGen == g {
		return
	}
	p.passGen = g
	switch p.commit(g, r.touched, &r.stats) {
	case passOverflow:
		r.stats.Overflows++
		r.drop = append(r.drop, p)
	case passReset:
		r.stats.Resets++
		r.drop = append(r.drop, p)
	}
}

// reset unregisters every plan: generation g replaced the state whole, with
// no update to test (a follower bootstrap).
func (r *carryRegistry) reset(g uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen = g
	r.stats.Resets += int64(len(r.plans))
	r.drop = append(r.drop, r.plans...)
	r.unregisterDropped()
}

// unregisterDropped unregisters the plans in r.drop. Caller holds r.mu.
func (r *carryRegistry) unregisterDropped() {
	for _, p := range r.drop {
		r.unregisterLocked(p)
	}
	clear(r.drop)
	r.drop = r.drop[:0]
}

// register registers p with test t, built over the state of generation at.
// A test with key sets registers only if no commit has run the pass since
// at, so the sets hold at the generation the plan is tracked from.
func (r *carryRegistry) register(p *carryPlan, t *carryTest, at uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.test != nil || p.evicted.Load() || t.keyed && at != r.gen {
		return false
	}
	p.test = t
	p.keyBytes.Store(t.bytes)
	p.log.Store(&carryLog{from: r.gen})
	r.plans = append(r.plans, p)
	for _, b := range p.bases {
		for len(r.names) <= b.id {
			r.names = append(r.names, "")
			r.scan = append(r.scan, nil)
			r.guards = append(r.guards, nil)
			r.touched = append(r.touched, [2]*relation.Relation{})
		}
		r.names[b.id] = b.name
		if b.guard == nil {
			r.scan[b.id] = append(r.scan[b.id], p)
			continue
		}
		i := slices.IndexFunc(r.guards[b.id], func(ix *carryIndex) bool { return ix.cols[0] == b.guard.col })
		if i < 0 {
			i = len(r.guards[b.id])
			r.guards[b.id] = append(r.guards[b.id], &carryIndex{cols: []int{b.guard.col}, plans: map[string][]*carryPlan{}})
		}
		ix := r.guards[b.id][i]
		ix.plans[b.guard.key] = append(ix.plans[b.guard.key], p)
		ix.n++
	}
	r.stats.Registered++
	for _, s := range t.sets {
		if s.keys != nil {
			r.stats.KeySets++
		}
	}
	r.stats.KeySetBytes += t.bytes
	r.keyBytes.Store(r.stats.KeySetBytes)
	return true
}

// unregister unregisters p, if registered.
func (r *carryRegistry) unregister(p *carryPlan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.unregisterLocked(p)
}

func (r *carryRegistry) unregisterLocked(p *carryPlan) {
	t := p.test
	if t == nil {
		return
	}
	r.plans = deleteFrom(r.plans, p)
	for _, b := range p.bases {
		if b.guard == nil {
			r.scan[b.id] = deleteFrom(r.scan[b.id], p)
			continue
		}
		for _, ix := range r.guards[b.id] {
			if ix.cols[0] == b.guard.col {
				if ix.plans[b.guard.key] = deleteFrom(ix.plans[b.guard.key], p); len(ix.plans[b.guard.key]) == 0 {
					delete(ix.plans, b.guard.key)
				}
				ix.n--
			}
		}
	}
	r.stats.Registered--
	for _, s := range t.sets {
		if s.keys != nil {
			r.stats.KeySets--
		}
	}
	r.stats.KeySetBytes -= t.bytes
	r.keyBytes.Store(r.stats.KeySetBytes)
	r.stats.LoggedTuples -= int64(len(p.log.Load().items))
	p.test = nil
	p.keyBytes.Store(0)
	p.log.Store(nil)
}

// deleteFrom returns plans without p.
func deleteFrom(plans []*carryPlan, p *carryPlan) []*carryPlan {
	i := slices.Index(plans, p)
	return slices.Delete(plans, i, i+1)
}

// snapshot returns the registry's counts.
func (r *carryRegistry) snapshot() carryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// track registers the carry plan of e's text, building it on the first
// call, unless it is registered: from the next commit on every commit
// tests it, so a later read can carry e. Its key sets are evaluated at the
// published version, the one the pass has most likely run for last.
func (s *server) track(ctx context.Context, e queryEntry) {
	p := e.carryPlan(s.comp.Database())
	p.budget.CompareAndSwap(0, e.cost)
	if p.log.Load() != nil {
		return
	}
	v := s.cur.Load()
	s.plans.register(p, p.newTest(ctx, v.w, s.qcache.keyRoom()), v.gen)
}

// carryCheck is what one carry check found, and the logged tuples it
// composed.
type carryCheck struct {
	why      fallback
	composed int64
}

// carries checks whether e's stored answer, Q(d) at generation e.gen, is
// also Q(d) at v, so it can be served without evaluating. The text's plan
// must have been tested by every commit since e.gen, which its log's from
// says (track registers it when an answer is stored). If no commit in (e.gen, v.gen] logged a tuple, Q(d) is
// unchanged. Otherwise the logged tuples fold into one net update, exact
// against e.gen's state on them, and its reverse — exact against v's, so
// no older version is pinned — is propagated over the carry plan and
// W⁻¹(v.w) (Theorem 4.1): an empty Δ(Q) proves Q(d) unchanged, since the
// tuples left out reach no occurrence of their base. The composition and
// the propagation's reads are charged against e.cost, and the check falls
// back to evaluation once past it.
func (s *server) carries(ctx context.Context, e queryEntry, v *version) carryCheck {
	if e.gen > v.gen {
		return carryCheck{why: readBehind}
	}
	var lg *carryLog
	p := e.built()
	if p != nil {
		lg = p.log.Load()
	}
	if lg == nil || lg.from > e.gen {
		return carryCheck{why: fellBackUntracked}
	}
	lo := 0
	for lo < len(lg.items) && lg.items[lo].gen <= e.gen {
		lo++
	}
	hi := lo
	for hi < len(lg.items) && lg.items[hi].gen <= v.gen {
		hi++
	}
	items := lg.items[lo:hi]
	check := carryCheck{composed: int64(len(items))}
	switch {
	case costCompose*check.composed >= e.cost:
		check.why = fellBackCost
		return check
	case len(items) == 0:
		return check
	}
	rev, err := p.reverse(items, s.comp.Database())
	switch {
	case err != nil:
		check.why = fellBackChanged
		return check
	case rev.IsEmpty():
		return check
	}
	budget := dwc.Budget{Scanned: max((e.cost-costCompose*check.composed)/costRead, 1)}
	d, err := dwc.AnswerDelta(dwc.WithBudget(ctx, budget), s.comp, v.w, p.expr, rev)
	switch {
	case err != nil: // over the budget, or out of the request's time
		check.why = fellBackCost
	case !d.IsEmpty():
		check.why = fellBackChanged
	}
	return check
}

// netTuple is a logged tuple's net change since the stored answer: +1
// inserted, −1 deleted. Every commit is exact against the state before it,
// so a tuple's changes alternate and sum to −1, 0 or +1; at 0 — an insert
// later deleted, a delete later re-inserted — it is not in the net.
type netTuple struct {
	loggedTuple
	net int8
}

// reverse folds the logged tuples into their net change, keyed by base and
// row, and returns its reverse: the update that takes the published state
// back to the stored answer's on those tuples. Rows are built as tuples for
// the net alone.
func (p *carryPlan) reverse(items []loggedTuple, db *dwc.Database) (*dwc.Update, error) {
	net := make(map[string]netTuple, len(items))
	var key []byte
	for _, it := range items {
		key = it.row.AppendKey(binary.AppendUvarint(key[:0], uint64(it.base)), int(it.k))
		n, ok := net[string(key)]
		if !ok {
			n.loggedTuple = it
		}
		n.net += it.sign
		net[string(key)] = n
	}
	rev := dwc.NewUpdate()
	for _, n := range net {
		if n.net == 0 {
			continue
		}
		op := rev.Insert
		if n.net > 0 {
			op = rev.Delete
		}
		t := make(relation.Tuple, n.row.NumCols())
		for c := range t {
			t[c] = n.row.Value(c, int(n.k))
		}
		if err := op(p.bases[n.base].name, db, t); err != nil {
			return nil, err
		}
	}
	return rev, nil
}
