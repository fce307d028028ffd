package main

// The carried-answer check (DESIGN §13): a stored answer Q(d), computed at
// an earlier state generation, is served at the published one when no
// commit since could reach it — the irrelevant-update test of Theorem 4.1's
// maintenance, applied to Q over W⁻¹(w) instead of to a view. Relevance is
// decided once, at commit, where the update is hot: every registered carry
// plan is tested against the commit's normalized update, and the first
// tuple that can reach its answer marks the plan reached at that
// generation. A read compares two generations.

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	dwc "dwcomplement"
	"dwcomplement/internal/algebra"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/relation"
)

// The carry check's prices, in fixed units of ≈ 10 ns, so that a commit's
// test of a plan is charged against the evaluation it would spare and a
// verdict depends on its inputs alone. Calibrated on BenchmarkAnswerPath
// (100k-row star, 2 vCPU): a /query miss costs ≈ 6.5 µs whatever it reads
// (the point shape), and ≈ 100 ns more per row it scans, probes or emits
// (the union shape; a join's rows cost more, so its price is low). A
// vectorized σ reads a row for ≈ 2 ns (scan/paris/miss: 168 µs for 101 k
// rows its scan read), so the rows it reads are priced apart. A commit's
// pass tests a tuple against a plan for ≈ 40 ns where it must look the
// tuple up in a key set, and for less where a σ decides (pass: 20
// tuple–plan tests and 4 index lookups in ≈ 3 µs, most of it per plan, not
// per tuple).
const (
	costEvalFixed = 650 // any evaluation, whatever it reads
	costEvalRow   = 10  // per row an evaluation scans, probes or emits
	costScanRows  = 5   // rows a vectorized σ reads per unit
	costTest      = 4   // per tuple a commit tests against a plan
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
// tested on every commit since the stored answer (never registered,
// registered later, or reset), or one of those commits reached it. /stats
// reports the counts under these names. readBehind is no fallback: the
// reader's version is older than the stored answer, which it neither
// carries nor replaces.
type fallback uint8

const (
	carried fallback = iota
	fellBackUntracked
	fellBackReached
	numFallbacks
	readBehind = numFallbacks
)

var fallbackNames = [numFallbacks]string{"", "untracked", "reached"}

// unregistered is a carry plan's since while no commit tests it.
const unregistered = math.MaxUint64

// carryPlan is what the carry checks of one query text share, built on its
// first check. bases holds each base Q reads with its relevance condition,
// sides the σ'd join sides whose key sets restrict some of them. Once
// registered, every commit tests the plan, and since says which commits
// found nothing: every one after it. Its readers read it with no lock.
type carryPlan struct {
	bases []carryBase
	sides []carrySide

	// Under the registry's lock: the compiled test of the plan's current
	// registration (nil while unregistered) and the last commit that ran it.
	test    *carryTest
	passGen uint64

	since    atomic.Uint64 // the registration's generation or the last commit that reached the plan, whichever is later; unregistered while none tests it
	from     atomic.Uint64 // the registration's generation
	budget   atomic.Int64  // the stored answer's price, in carry units
	keyBytes atomic.Int64  // the bytes of the registration's key sets
	evicted  atomic.Bool   // the text left the query cache: never registered again
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

// newCarryPlan builds the carry plan of q over db, from q optimized: its σs
// sit on the occurrences they restrict.
func newCarryPlan(q dwc.Expr, db *dwc.Database) *carryPlan {
	p := &carryPlan{}
	p.since.Store(unregistered)
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
	visit(algebra.Optimize(q, db), nil)
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
	preds []relation.BatchPred // by plan base: its cond
	refs  [][]sideRef          // by plan base: the key sets in use among its sides
	sets  []keySet             // by plan side; nil keys: not in use
	keyed bool                 // some base has key sets in use
	bytes int64                // the sets' bytes
	sel   []int32
	key   []byte
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

// first reports whether a row of page b of base i, among its first room,
// can reach the answer, and how many rows the test looked at: up to and
// including that row, else room or the whole page, whichever is fewer. A
// row that passes the base's σs and fails a key set is a key-set hit.
func (t *carryTest) first(i int, b relation.Batch, room int, st *carryStats) (found bool, looked int) {
	t.sel = t.preds[i](b, t.sel[:0])
	for _, k := range t.sel {
		if int(k) >= room {
			break
		}
		if t.inSets(b, int(k), t.refs[i]) {
			return true, int(k) + 1
		}
		st.KeySetHits++
	}
	return false, min(room, b.Len())
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

// passOutcome is what a commit's pass did to one plan.
type passOutcome uint8

const (
	passClean   passOutcome = iota
	passReached             // a tuple can reach the answer, or the commit is past the plan's price
	passReset               // a key set's side changed: unregistered
)

// commit runs the plan's test on a commit whose inserted and deleted
// tuples are touched[id] for each base. A key set's side is tested first:
// a relevant change to it resets the plan, so no tuple is tested against a
// key set that no longer holds. The test stops at the first tuple that can
// reach the answer, and once it has looked at as many tuples as the stored
// answer's price pays for: a commit it cannot clear for that price
// overflows, and is taken to reach the plan.
func (p *carryPlan) commit(touched [][2]*relation.Relation, st *carryStats) passOutcome {
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
	room := int(max(p.budget.Load(), costEvalFixed) / costTest)
	for i, b := range p.bases {
		for _, r := range touched[b.id] {
			if r == nil {
				continue
			}
			for pi := range r.NumPages() {
				pg := r.Page(pi)
				found, looked := t.first(i, pg, room, st)
				st.Tested += int64(looked)
				room -= looked
				switch {
				case found:
					return passReached
				case looked < pg.Len():
					st.Overflows++
					return passReached
				}
			}
		}
	}
	return passClean
}

// carryStats is what /stats reports of the registered plans: how many,
// their key sets and the sets' bytes; the registrations reset (a key set's
// side changed, or a follower bootstrap replaced the state); and, over the
// commits, the commit–plan pairs that reached a plan and those of them that
// overflowed its price, the tuple–plan pairs a plan's test looked at, those
// an equality index answered by one lookup, and those a key set alone
// found irrelevant.
type carryStats struct {
	Registered  int64 `json:"registered"`
	KeySets     int64 `json:"keySets"`
	KeySetBytes int64 `json:"keySetBytes"`
	Resets      int64 `json:"resets"`
	Reached     int64 `json:"reached"`
	Overflows   int64 `json:"overflows"`
	Tested      int64 `json:"tested"`
	Indexed     int64 `json:"indexed"`
	KeySetHits  int64 `json:"keySetHits"`
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
	switch p.commit(r.touched, &r.stats) {
	case passReached:
		r.stats.Reached++
		p.since.Store(g)
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
	p.from.Store(r.gen)
	p.since.Store(r.gen)
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
	p.test = nil
	p.keyBytes.Store(0)
	p.since.Store(unregistered)
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
	if p.since.Load() != unregistered {
		return
	}
	v := s.cur.Load()
	s.plans.register(p, p.newTest(ctx, v.w, s.qcache.keyRoom()), v.gen)
}

// carries checks whether e's stored answer, Q(d) at generation e.gen, is
// also Q(d) at v, so it can be served without evaluating: no commit in
// (e.gen, v.gen] reached the text's plan, and each of them tested it (track
// registers it when an answer is stored), which the plan's since says. A
// commit's pass runs before the generation is published, so a reader that
// loaded v finds since past every commit up to v.gen that reached the plan.
func carries(e queryEntry, v *version) fallback {
	if e.gen > v.gen {
		return readBehind
	}
	p := e.built()
	if p == nil {
		return fellBackUntracked
	}
	switch since := p.since.Load(); {
	case since <= e.gen:
		return carried
	case since == unregistered || p.from.Load() > e.gen:
		return fellBackUntracked
	}
	return fellBackReached
}
