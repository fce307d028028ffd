package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	dwc "dwcomplement"
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
		if e, _ := srv.qcache.get(q); e.built() == nil || e.built().since.Load() == unregistered {
			tb.Fatalf("%s: carry plan not registered", q)
		}
	}
}

// TestCarryCounts holds the commit-side relevance test to its counts,
// which no machine changes. Across 40 churn commits the point and join
// shapes, whose σs pin okey and ckey, are answered by one index lookup per
// tuple, the scan tests every tuple of its base, and none is reached. The
// union's orders are bare occurrences joined with σ{brand}(Part), so their
// key set finds every churn tuple irrelevant — each a key-set hit — where a
// σ alone would let each one reach the plan. Every shape then carries. A
// commit's pass allocates nothing: with no plan registered, when it reaches
// every registered plan, and with the 170-text pool's.
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
	reached, hits := after.Reached-before.Reached, after.KeySetHits-before.KeySetHits
	if tested != paris+both || indexed != 2*paris || reached != 0 || hits != both {
		t.Errorf("40 churn commits: %d tested, %d indexed, %d reached, %d key-set hits; want %d, %d, 0 and %d",
			tested, indexed, reached, hits, paris+both, 2*paris, both)
	}
	v := srv.cur.Load()
	for _, c := range shapes {
		if e, _ := srv.qcache.get(c.q); carries(e, v) != carried {
			t.Errorf("%s across 40 commits: not carried", c.q)
		}
	}

	// Order 47 of customer 17, for part 141 of brand-007, with qty 50: a
	// tuple every shape finds relevant, which the pass does not apply.
	all, err := dwc.ParseUpdateOps(srv.db, "insert Order_paris(47, 17, 141, 'paris', 50)")
	if err != nil {
		t.Fatal(err)
	}
	reach := func() { g++; srv.plans.pass(g, all) }
	before = srv.plans.snapshot()
	reach()
	if after := srv.plans.snapshot(); after.Reached-before.Reached != int64(len(shapes)) || after.Tested-before.Tested != int64(len(shapes)) {
		t.Errorf("a commit reaching every shape: %d reached, %d tested; want %d of each",
			after.Reached-before.Reached, after.Tested-before.Tested, len(shapes))
	}
	if a := testing.AllocsPerRun(20, reach); a != 0 {
		t.Errorf("a commit's pass reaching every registered plan: %.1f allocations", a)
	}

	register(t, srv, &churn, poolTexts(4000))
	if a := testing.AllocsPerRun(20, pass); a != 0 {
		t.Errorf("a churn commit's pass over %d registered plans: %.1f allocations", srv.plans.snapshot().Registered, a)
	}
}

// TestCarryPassCapped: a commit of 1 000 tuples tests each registered plan
// only as far as its stored answer's price pays for. The plans whose price
// it exceeds overflow — reached, and still registered — and the pass tests
// no more tuples than the plans' prices allow. A commit of 1 000 tuples
// that are each relevant to every plan tests one tuple per plan.
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
	orders := func(format string) string {
		var ops strings.Builder
		for k := range 1000 {
			fmt.Fprintf(&ops, format, 9000+k)
		}
		return ops.String()
	}
	before := srv.plans.snapshot()
	postUpdateTo(t, srv.handler(), orders("insert Order_paris(%d, 200, 200, 'paris', 1)\n"))
	after := srv.plans.snapshot()
	if tested := after.Tested - before.Tested; tested > capped {
		t.Errorf("a 1000-tuple commit tested %d tuples, past the plans' prices of %d", tested, capped)
	}
	if after.Overflows == before.Overflows || after.Reached-before.Reached != after.Overflows-before.Overflows || after.Registered != before.Registered {
		t.Errorf("a 1000-tuple commit no plan finds relevant: %+v before, %+v after; want overflows, each one reached, and no plan unregistered", before, after)
	}
	t.Logf("1000-tuple commit: %d tested (cap %d), %d overflows", after.Tested-before.Tested, capped, after.Overflows-before.Overflows)

	srv = newStar(t, 4000)
	churn = starChurn{h: srv.handler(), rows: 4000}
	texts := []string{
		"sigma{qty > 49}(Order_paris)",
		"sigma{qty > 10}(Order_paris)",
		"sigma{ckey = 17}(Order_paris join Customer)",
		"sigma{brand = 'brand-007'}((Order_paris union Order_tokyo) join Part)",
	}
	register(t, srv, &churn, texts)
	before = srv.plans.snapshot()
	postUpdateTo(t, srv.handler(), orders("insert Order_paris(%d, 17, 141, 'paris', 50)\n"))
	after = srv.plans.snapshot()
	if tested, reached := after.Tested-before.Tested, after.Reached-before.Reached; tested != int64(len(texts)) || reached != int64(len(texts)) {
		t.Errorf("a 1000-tuple commit relevant to every plan: %d tested, %d reached; want %d of each", tested, reached, len(texts))
	}
}

// TestScanCarryPricedAtScanRate: a scan's evaluation is priced at what its
// vectorized σ reads a row for, not what a join's rows cost, so a commit of
// 1 000 tuples its σ rejects is past the scan text's price: the pass stops
// testing it there and takes the commit to reach it, and the next check
// falls back on a plan still registered. A join's price would have let the
// pass clear them all.
func TestScanCarryPricedAtScanRate(t *testing.T) {
	srv := newStar(t, 4000)
	const q = "sigma{qty < 2}(Order_paris)"
	churn := starChurn{h: srv.handler(), rows: 4000}
	register(t, srv, &churn, []string{q})
	e, _ := srv.qcache.get(q)
	if join := int64(costEvalFixed + costEvalRow*2*2000); e.cost*10 > join || costTest*1000 <= e.cost {
		t.Fatalf("the scan of 2000 rows is priced %d units, want below a tenth of the %d a join's rows would cost, and below 1000 tests", e.cost, join)
	}
	var ops strings.Builder
	for k := range 1000 {
		fmt.Fprintf(&ops, "insert Order_paris(%d, 1, 1, 'paris', 50)\n", 9000+k)
	}
	postUpdateTo(t, srv.handler(), ops.String())
	if st := srv.plans.snapshot(); st.Overflows != 1 || st.Registered != 1 {
		t.Fatalf("a 1000-tuple commit past the scan's price: %+v, want 1 overflow and the plan registered", st)
	}
	if why := carries(e, srv.cur.Load()); why != fellBackReached {
		t.Fatalf("carry check across a commit past the plan's price: %q, want reached", fallbackNames[why])
	}
}

// TestCarryKeySetFollowsItsSide: a Part of the queried brand, inserted,
// resets the union text's plan — its key set no longer holds — so an order
// for that part, committed next, is not found irrelevant by the old key
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
// that stored the answer, nor from the published one. A commit between
// either and the registration was never tested against it, so that answer
// does not carry past it.
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
	if carries(e, srv.cur.Load()) == carried {
		t.Fatal("an answer carried across a commit its plan was registered after")
	}

	// Nor from the published version: a commit whose pass has run, and
	// whose generation is not yet published, never tested the plan either.
	const q2 = "sigma{okey = 9002}(Order_paris)"
	ask(t, h, q2)
	e2, _ := srv.qcache.get(q2)
	srv.plans.unregister(e2.built())
	u, err := dwc.ParseUpdateOps(srv.db, "insert Order_paris(9002, 1, 1, 'paris', 1)")
	if err != nil {
		t.Fatal(err)
	}
	srv.plans.pass(e2.gen+1, u) // the commit of e2.gen+1, unpublished
	srv.track(context.Background(), e2)
	if carries(e2, &version{gen: e2.gen + 1}) == carried {
		t.Fatal("an answer carried across a commit whose pass ran before its plan registered")
	}
}

// TestCarryReachedAcrossInsertAndDelete: an insert and its delete leave
// Q(d) as it was, but each reaches the plan, so the stored answer is not
// carried across them: the check falls back reached, and the read that
// follows evaluates the same answer afresh.
func TestCarryReachedAcrossInsertAndDelete(t *testing.T) {
	srv := newStar(t, 4000)
	h := srv.handler()
	const q = "sigma{okey > 9000}(Order_paris)"
	churn := starChurn{h: h, rows: 4000}
	register(t, srv, &churn, []string{q})
	postUpdateTo(t, h, "insert Order_paris(9001, 1, 1, 'paris', 1)")
	checkFresh(t, srv, q, ask(t, h, q))
	stored, _ := srv.qcache.get(q)
	postUpdateTo(t, h, "insert Order_paris(9002, 1, 1, 'paris', 1)")
	postUpdateTo(t, h, "delete Order_paris(9002, 1, 1, 'paris', 1)")
	if why := carries(stored, srv.cur.Load()); why != fellBackReached {
		t.Fatalf("the stored answer across an insert and its delete: %q, want reached", fallbackNames[why])
	}
	reached := srv.fellBack[fellBackReached].Load()
	checkFresh(t, srv, q, ask(t, h, q))
	if n := srv.fellBack[fellBackReached].Load() - reached; n != 1 {
		t.Fatalf("%d reads fell back reached, want 1", n)
	}
}
