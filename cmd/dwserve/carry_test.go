package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	dwc "dwcomplement"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// starChurn commits the churn updates of a Section-5 star loaded with
// workload.FillSection5(rows): the n-th inserts order rows+n on alternating
// sites, with the last customer and part and a quantity of 1, and deletes
// the order its site inserted two commits before. No query of the process
// benchmark's pool selects one, nor does any shape of BenchmarkAnswerPath.
type starChurn struct {
	h    http.Handler
	rows int
	n    int // commits so far
}

// next returns the next churn update's text and the tuples it changes.
func (c *starChurn) next() (string, int) {
	site, dim := [2]string{"paris", "tokyo"}[c.n%2], c.rows/20
	row := func(n int) string {
		return fmt.Sprintf("Order_%s(%d, %d, %d, '%s', 1)", site, c.rows+n, dim, dim, site)
	}
	ops, tuples := "insert "+row(c.n), 1
	if c.n >= 2 {
		ops, tuples = ops+"\ndelete "+row(c.n-2), 2
	}
	return ops, tuples
}

// commit posts the next churn update and returns the tuples it changed.
func (c *starChurn) commit(tb testing.TB) int {
	tb.Helper()
	ops, tuples := c.next()
	c.n++
	postUpdateTo(tb, c.h, ops)
	return tuples
}

// postUpdateTo posts an update to h.
func postUpdateTo(tb testing.TB, h http.Handler, ops string) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/update", strings.NewReader(ops)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("update %q: status %d: %s", ops, rec.Code, rec.Body)
	}
}

// ask answers q through h.
func ask(tb testing.TB, h http.Handler, q string) *httptest.ResponseRecorder {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query?q="+url.QueryEscape(q), nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", q, rec.Code, rec.Body)
	}
	return rec
}

// newStar serves a Section-5 star of rows rows.
func newStar(tb testing.TB, rows int) *server {
	tb.Helper()
	spec, err := dwc.ParseSpec(workload.Section5Spec)
	if err != nil {
		tb.Fatal(err)
	}
	spec.State = spec.DB.NewState()
	workload.FillSection5(spec.State, rows)
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// poolTexts returns a pool of 170 texts, some repeated, over a star of rows rows with the
// process benchmark's shapes and shares: 128 points, a scan per site, 32
// joins and 8 unions, drawn from the lower halves of the dimensions, which
// no churn row reaches.
func poolTexts(rows int) []string {
	rng := rand.New(rand.NewSource(1))
	sites := [2]string{"Order_paris", "Order_tokyo"}
	var texts []string
	for i := range 128 {
		texts = append(texts, fmt.Sprintf("sigma{okey = %d}(%s)", 1+rng.Intn(rows/2), sites[i%2]))
	}
	for _, s := range sites {
		texts = append(texts, fmt.Sprintf("sigma{qty > 49}(%s)", s))
	}
	half := rows / 40
	for i := range 32 {
		texts = append(texts, fmt.Sprintf("sigma{ckey = %d}(%s join Customer)", 1+rng.Intn(half), sites[i%2]))
	}
	for range 8 {
		texts = append(texts, fmt.Sprintf("sigma{brand = 'brand-%03d'}((Order_paris union Order_tokyo) join Part)", rng.Intn(half/20)))
	}
	return texts
}

// register registers the carry plans of texts: each is answered, then, after
// one churn commit, answered again, which registers its plan.
func register(tb testing.TB, srv *server, churn *starChurn, texts []string) {
	tb.Helper()
	h := srv.handler()
	texts = slices.Compact(slices.Sorted(slices.Values(texts)))
	for _, q := range texts {
		ask(tb, h, q)
	}
	churn.commit(tb)
	for _, q := range texts {
		ask(tb, h, q)
		if e, _ := srv.qcache.get(q); e.built() == nil || e.built().log.Load() == nil {
			tb.Fatalf("%s: carry plan not registered", q)
		}
	}
}

// TestCarryCounts holds the commit-side relevance test to its counts,
// which no machine changes. Across 40 churn commits the point and join
// shapes, whose σs pin okey and ckey, are answered by one index lookup per
// tuple, the scan tests every tuple of its base, and none logs. The union's
// orders are bare occurrences joined with σ{brand}(Part), so their key set
// keeps every churn tuple out of the log — each a key-set hit — where a σ
// alone would log them all. Every shape then carries with nothing to
// compose. A commit's pass allocates nothing, with no plan registered and
// with the 170-text pool's.
func TestCarryCounts(t *testing.T) {
	srv := newStar(t, 4000)
	churn := starChurn{h: srv.handler(), rows: 4000}
	shapes := []struct {
		q     string
		sites int // order relations read
	}{
		{"sigma{okey = 47}(Order_paris)", 1},
		{"sigma{ckey = 17}(Order_paris join Customer)", 1},
		{"sigma{qty > 49}(Order_paris)", 1},
		{"sigma{brand = 'brand-007'}((Order_paris union Order_tokyo) join Part)", 2},
	}
	ops, _ := churn.next()
	u, err := dwc.ParseUpdateOps(srv.db, ops)
	if err != nil {
		t.Fatal(err)
	}
	g := uint64(1 << 40)
	pass := func() { g++; srv.plans.pass(g, u) }
	if a := testing.AllocsPerRun(20, pass); a != 0 {
		t.Errorf("a churn commit's pass with no plan registered: %.1f allocations", a)
	}
	var texts []string
	for _, c := range shapes {
		texts = append(texts, c.q)
	}
	register(t, srv, &churn, texts)
	before := srv.plans.snapshot()
	var paris, both int64 // tuples the commits changed in Order_paris, in both sites
	for range 40 {
		n := int64(churn.commit(t))
		if churn.n%2 == 1 {
			paris += n
		}
		both += n
	}
	after := srv.plans.snapshot()
	tested, indexed := after.Tested-before.Tested, after.Indexed-before.Indexed
	logged, hits := after.Logged-before.Logged, after.KeySetHits-before.KeySetHits
	if tested != paris+both || indexed != 2*paris || logged != 0 || hits != both {
		t.Errorf("40 churn commits: %d tested, %d indexed, %d logged, %d key-set hits; want %d, %d, 0 and %d",
			tested, indexed, logged, hits, paris+both, 2*paris, both)
	}
	v, ctx := srv.cur.Load(), context.Background()
	for _, c := range shapes {
		e, _ := srv.qcache.get(c.q)
		e.cost = math.MaxInt64 // the counts, not the pricing
		if check := srv.carries(ctx, e, v); check.why != carried || check.composed != 0 {
			t.Errorf("%s across 40 commits: %+v, want carried with nothing composed", c.q, check)
		}
	}

	register(t, srv, &churn, poolTexts(4000))
	if a := testing.AllocsPerRun(20, pass); a != 0 {
		t.Errorf("a churn commit's pass over %d registered plans: %.1f allocations", srv.plans.snapshot().Registered, a)
	}
}

// TestCarryPassCapped: a commit of 1 000 tuples tests each registered plan
// only as far as its stored answer's price pays for. The plans whose
// price it exceeds overflow, and the pass tests no more tuples than the
// plans' budgets allow.
func TestCarryPassCapped(t *testing.T) {
	srv := newStar(t, 4000)
	churn := starChurn{h: srv.handler(), rows: 4000}
	register(t, srv, &churn, poolTexts(4000))
	capped := int64(0)
	for _, p := range srv.plans.plans {
		if slices.ContainsFunc(p.bases, func(b carryBase) bool { return b.name == "Order_paris" }) {
			capped += max(p.budget.Load(), costEvalFixed) / costTest
		}
	}
	var ops strings.Builder
	for k := range 1000 {
		fmt.Fprintf(&ops, "insert Order_paris(%d, 200, 200, 'paris', 1)\n", 9000+k)
	}
	before := srv.plans.snapshot()
	postUpdateTo(t, srv.handler(), ops.String())
	after := srv.plans.snapshot()
	if tested := after.Tested - before.Tested; tested > capped {
		t.Errorf("a 1000-tuple commit tested %d tuples, past the plans' budgets of %d", tested, capped)
	}
	if after.Overflows == before.Overflows {
		t.Error("no plan overflowed on a 1000-tuple commit")
	}
	t.Logf("1000-tuple commit: %d tested (cap %d), %d overflows", after.Tested-before.Tested, capped, after.Overflows-before.Overflows)
}

// TestCarryNetComposes folds random exact update streams into a plan's net
// with every tuple logged: its reverse takes the last state back to the
// first, so an insert later deleted and a delete later re-inserted cancel,
// and nothing else does.
func TestCarryNetComposes(t *testing.T) {
	spec := mustSpec(t, testSpec)
	db := spec.DB
	p := newCarryPlan(dwc.MustParseExpr("pi{clerk}(Sale) union pi{clerk}(Emp)"), db)
	rng := rand.New(rand.NewSource(7))
	tuple := func() (string, relation.Tuple) {
		if rng.Intn(2) == 0 {
			return "Sale", relation.Tuple{relation.String_(fmt.Sprint("item-", rng.Intn(4))), relation.String_(fmt.Sprint("c-", rng.Intn(3)))}
		}
		c := rng.Intn(3) // one age per clerk: the key holds
		return "Emp", relation.Tuple{relation.String_(fmt.Sprint("c-", c)), relation.Int(int64(20 + c))}
	}
	for round := 0; round < 200; round++ {
		first := spec.State.Clone()
		cur := first.Clone()
		var items []loggedTuple
		for step := rng.Intn(6); step >= 0; step-- {
			u := dwc.NewUpdate()
			for k := rng.Intn(4); k >= 0; k-- {
				name, tp := tuple()
				if cur.MustRelation(name).Contains(tp) {
					u.MustDelete(name, db, tp...)
				} else {
					u.MustInsert(name, db, tp...)
				}
			}
			u = u.Normalize(cur)
			if err := u.Apply(cur); err != nil {
				t.Fatal(err)
			}
			for i, b := range p.bases {
				for sign, r := range map[int8]*relation.Relation{+1: u.Inserts(b.name), -1: u.Deletes(b.name)} {
					if r == nil {
						continue
					}
					for pi := range r.NumPages() {
						for k := range r.Page(pi).Len() {
							items = append(items, loggedTuple{row: r.Page(pi), k: int32(k), base: int16(i), sign: sign})
						}
					}
				}
			}
		}
		rev, err := p.reverse(items, db)
		if err != nil {
			t.Fatal(err)
		}
		if n := rev.Normalize(cur); n.Size() != rev.Size() {
			t.Fatalf("round %d: reversed net not exact against the last state:\n%s", round, rev)
		}
		back := cur.Clone()
		if err := rev.Apply(back); err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != first.Fingerprint() {
			t.Fatalf("round %d: last state + reversed net ≠ first state\nnet\n%s", round, rev)
		}
	}
}

// TestScanCarryPricedAtScanRate: a scan's evaluation is priced at what its
// vectorized σ reads a row for, not what a join's rows cost, so the log of
// a scan text whose σ every churn row passes overflows once it holds more
// tuples than the scan would read, and the next check falls back: the
// plan is no longer tracked. A join's price would have let it run to the
// end.
func TestScanCarryPricedAtScanRate(t *testing.T) {
	srv := newStar(t, 4000)
	const q = "sigma{qty < 2}(Order_paris)" // every churn row has qty 1
	churn := starChurn{h: srv.handler(), rows: 4000}
	register(t, srv, &churn, []string{q})
	e, _ := srv.qcache.get(q)
	if join := int64(costEvalFixed + costEvalRow*2*2000); e.cost*10 > join {
		t.Fatalf("the scan of 2000 rows is priced %d units, want below a tenth of the %d a join's rows would cost", e.cost, join)
	}
	for range 120 {
		churn.commit(t)
	}
	if n := srv.plans.snapshot().Overflows; n != 1 {
		t.Fatalf("%d overflows across 120 commits of relevant churn, want 1", n)
	}
	if check := srv.carries(context.Background(), e, srv.cur.Load()); check.why != fellBackUntracked {
		t.Fatalf("carry check across 120 commits of relevant churn: %+v, want a fallback on an untracked plan", check)
	}
}

// TestCarryKeySetFollowsItsSide: a Part of the queried brand, inserted,
// resets the union text's plan — its key set no longer holds — so an order
// for that part, committed next, is not kept out of the log by the old key
// set: the answer that follows includes it.
func TestCarryKeySetFollowsItsSide(t *testing.T) {
	srv := newStar(t, 4000)
	h := srv.handler()
	const q = "sigma{brand = 'brand-003'}((Order_paris union Order_tokyo) join Part)"
	churn := starChurn{h: h, rows: 4000}
	register(t, srv, &churn, []string{q})
	if n := srv.plans.snapshot().KeySets; n != 1 {
		t.Fatalf("%d key sets, want 1: π_pkey(σ{brand}(Part))", n)
	}
	postUpdateTo(t, h, "insert Part(9001, 'part-9001', 'brand-003')")
	if n := srv.plans.snapshot().Resets; n != 1 {
		t.Fatalf("%d resets after a part of the queried brand was inserted, want 1", n)
	}
	checkFresh(t, srv, q, ask(t, h, q))
	postUpdateTo(t, h, "insert Order_paris(9100, 1, 9001, 'paris', 5)")
	rec := ask(t, h, q)
	checkFresh(t, srv, q, rec)
	if !strings.Contains(rec.Body.String(), "9100") {
		t.Fatalf("the order for the new part is missing: %s", rec.Body)
	}
}

// TestCarryTrackedFromRegistration: a plan is tracked from the last commit
// that ran the pass when it registered, not from the version of the reader
// that stored the answer. A commit published between the two was never
// tested against it, so that answer does not carry past it.
func TestCarryTrackedFromRegistration(t *testing.T) {
	srv := newStar(t, 4000)
	h := srv.handler()
	const q = "sigma{okey = 9001}(Order_paris)"
	ask(t, h, q)
	postUpdateTo(t, h, "insert Order_tokyo(9001, 1, 1, 'tokyo', 1)") // no tuple of Order_paris
	read := srv.cur.Load()                                           // a reader evaluates Q at this version …
	postUpdateTo(t, h, "insert Order_paris(9001, 1, 1, 'paris', 1)") // … and a commit reaching Q lands before it stores the answer
	e, _ := srv.qcache.get(q)
	e.gen = read.gen
	srv.track(context.Background(), e)
	if check := srv.carries(context.Background(), e, srv.cur.Load()); check.why == carried {
		t.Fatal("an answer carried across a commit its plan was registered after")
	}
}

// TestCarryLogTrimmedPastServedEntry: once the stored answer has moved past
// a logged tuple, the next commit that logs trims it, and the log says it
// covers only the commits after that answer. A reader still holding the
// older answer then evaluates: the tuples left in the log — an insert and
// its delete — would compose to nothing and carry it past the one it lacks.
func TestCarryLogTrimmedPastServedEntry(t *testing.T) {
	srv := newStar(t, 4000)
	h := srv.handler()
	const q = "sigma{okey > 9000}(Order_paris)"
	churn := starChurn{h: h, rows: 4000}
	register(t, srv, &churn, []string{q})
	postUpdateTo(t, h, "insert Order_paris(9001, 1, 1, 'paris', 1)")
	slow, _ := srv.qcache.get(q) // a reader holds the answer without 9001
	checkFresh(t, srv, q, ask(t, h, q))
	postUpdateTo(t, h, "insert Order_paris(9002, 1, 1, 'paris', 1)")
	postUpdateTo(t, h, "delete Order_paris(9002, 1, 1, 'paris', 1)")
	v := srv.cur.Load()
	if check := srv.carries(context.Background(), slow, v); check.why == carried {
		t.Fatalf("an answer carried past a trimmed tuple: %+v", check)
	}
	cur, _ := srv.qcache.get(q)
	if check := srv.carries(context.Background(), cur, v); check.why != carried || check.composed != 2 {
		t.Fatalf("the stored answer across an insert and its delete: %+v, want carried with 2 composed", check)
	}
}
