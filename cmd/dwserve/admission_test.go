package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/source"
	"dwcomplement/internal/testmain"
)

func TestMain(m *testing.M) { testmain.Run(m) }

// newOverloadServer builds a server with an explicit overload config,
// returning both the server (for direct controller access) and its
// test listener.
func newOverloadServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(spec, dwc.Theorem22(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestEvalStatusMapping is the regression for the 499/503 split: a
// client cancel is 499, the server's own deadline is 503 + Retry-After,
// a budget violation is 503 without Retry-After (retrying the same
// query will not make it cheaper), anything else stays 500.
func TestEvalStatusMapping(t *testing.T) {
	tests := []struct {
		err    error
		status int
		retry  bool
	}{
		{context.Canceled, statusClientClosedRequest, false},
		{fmt.Errorf("eval: %w", context.Canceled), statusClientClosedRequest, false},
		{context.DeadlineExceeded, http.StatusServiceUnavailable, true},
		{fmt.Errorf("eval: %w", context.DeadlineExceeded), http.StatusServiceUnavailable, true},
		{dwc.ErrBudgetExceeded, http.StatusServiceUnavailable, false},
		{errors.New("boom"), http.StatusInternalServerError, false},
	}
	for _, tt := range tests {
		status, retry := evalStatus(tt.err)
		if status != tt.status || retry != tt.retry {
			t.Errorf("evalStatus(%v) = (%d, %v), want (%d, %v)", tt.err, status, retry, tt.status, tt.retry)
		}
	}
}

// TestQueryDeadlineExceeded: with a -query-timeout too small for any
// evaluation, the query path answers 503 with Retry-After — not the
// 499 reserved for the client going away.
func TestQueryDeadlineExceeded(t *testing.T) {
	_, ts := newOverloadServer(t, serverConfig{QueryTimeout: time.Nanosecond})
	resp, err := http.Get(ts.URL + "/query?q=" + escape("Sale"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestQueryBudgetExceeded: a -query-budget smaller than the query's row
// footprint aborts the evaluation with 503, no Retry-After.
func TestQueryBudgetExceeded(t *testing.T) {
	_, ts := newOverloadServer(t, serverConfig{QueryBudget: 1})
	resp, err := http.Get(ts.URL + "/query?q=" + escape("Sale join Emp"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("budget 503 should not advertise Retry-After")
	}
	// A generous budget answers normally.
	_, ts2 := newOverloadServer(t, serverConfig{QueryBudget: 1 << 20})
	var body map[string]any
	if code := getJSON(t, ts2.URL+"/query?q="+escape("Sale join Emp"), &body); code != 200 {
		t.Fatalf("budgeted query = %d, want 200", code)
	}
}

// TestUpdateShedsWithRetryAfter is the backpressure satellite: when the
// Delivery class is saturated with no queue, POST /update sheds with
// 429 + Retry-After — and /readyz keeps answering 200 the whole time,
// because health never sheds.
func TestUpdateShedsWithRetryAfter(t *testing.T) {
	srv, ts := newOverloadServer(t, serverConfig{
		Admission: admission.Config{Capacity: 2, DeliveryQueue: -1, QueryQueue: -1},
	})
	// dw_admission_shed_total is resolved per class at boot, so a shed
	// looks nothing up in the registry.
	shedMetrics := func(want ...int) {
		t.Helper()
		_, metrics := getText(t, ts.URL+"/metrics")
		for i, cl := range admission.Classes() {
			if line := fmt.Sprintf("dw_admission_shed_total{class=%q} %d\n", cl, want[i]); !strings.Contains(metrics, line) {
				t.Errorf("/metrics lacks %q", line)
			}
		}
	}
	shedMetrics(0, 0, 0, 0)
	// Saturate the controller from the test: both capacity units held.
	release, err := srv.adm.Acquire(context.Background(), admission.Query, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	var out map[string]any
	resp, err := http.Post(ts.URL+"/update", "text/plain", strings.NewReader(`insert Sale('X', 'Mary')`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated update = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := srv.adm.Shed(admission.Delivery); got == 0 {
		t.Error("shed not counted for the delivery class")
	}
	shedMetrics(0, 1, 0, 0)
	// Readiness is immune: still 200 while shedding.
	if code := getJSON(t, ts.URL+"/readyz", &out); code != 200 {
		t.Fatalf("readyz while shedding = %d, want 200", code)
	}
	// After release the same update goes through (release is idempotent,
	// so the deferred second call is harmless).
	release()
	if code := postText(t, ts.URL+"/update", `insert Sale('X', 'Mary')`, &out); code != 200 {
		t.Fatalf("update after release = %d, want 200: %v", code, out)
	}
}

// TestReportDeliveryNeverSheds: in-process report delivery waits out
// saturation instead of shedding — the report is applied once capacity
// frees, never refused.
func TestReportDeliveryNeverSheds(t *testing.T) {
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{
		Admission: admission.Config{Capacity: 2, DeliveryQueue: -1, QueueTimeout: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := dwc.ParseUpdateOps(spec.DB, `insert Sale('Radio', 'Paula')`)
	if err != nil {
		t.Fatal(err)
	}
	release, err := srv.adm.Acquire(context.Background(), admission.Query, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.applyRemote(source.Notification{Source: "sales", Seq: 1, Update: u})
		close(done)
	}()
	// Outlast the queue timeout several times over: delivery must still
	// be waiting, not shed.
	select {
	case <-done:
		t.Fatal("applyRemote returned while the controller was saturated")
	case <-time.After(60 * time.Millisecond):
	}
	if got := srv.adm.Shed(admission.Delivery); got != 0 {
		t.Fatalf("delivery shed count = %d, want 0", got)
	}
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("applyRemote never completed after release")
	}
	if v := srv.cur.Load(); v.marks["sales"] != 1 || v.refreshes != 1 {
		t.Fatalf("report not applied: seq=%d refreshes=%d", v.marks["sales"], v.refreshes)
	}
}

// TestUpdateBodyTooLarge: an update past -max-body answers 413.
func TestUpdateBodyTooLarge(t *testing.T) {
	_, ts := newOverloadServer(t, serverConfig{MaxBody: 64})
	big := "insert Sale('" + strings.Repeat("x", 256) + "', 'Mary')"
	resp, err := http.Post(ts.URL+"/update", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized update = %d, want 413", resp.StatusCode)
	}
	var out map[string]any
	if code := postText(t, ts.URL+"/update", `insert Sale('Y', 'Mary')`, &out); code != 200 {
		t.Fatalf("small update = %d, want 200: %v", code, out)
	}
}

// ladderClock is a fake clock for ladder tests, safe for the
// controller's concurrent Observe calls.
type ladderClock struct{ nanos atomic.Int64 }

func (c *ladderClock) now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *ladderClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }

// TestDegradationLadder walks the full ladder end to end over HTTP:
// traces shed and explain strips at LevelNoTrace, stale-tolerant
// queries serve cached answers at LevelStale, fresh queries shed only
// at LevelShedQueries — while updates and /readyz keep working at every
// rung.
func TestDegradationLadder(t *testing.T) {
	clk := &ladderClock{}
	srv, ts := newOverloadServer(t, serverConfig{
		Admission: admission.Config{
			Capacity: 64,
			// Cool is huge so the controller's own low-pressure samples
			// (issued on every test request) never step the level back
			// down mid-test; the fake clock never advances that far.
			Ladder: admission.LadderConfig{High: 0.9, Low: 0.5, Climb: 50 * time.Millisecond, Cool: time.Hour, Now: clk.now},
		},
	})
	ladder := srv.adm.Ladder()
	climb := func(stalled bool) {
		t.Helper()
		ladder.Observe(1.5, stalled)
		clk.advance(60 * time.Millisecond)
		ladder.Observe(1.5, stalled)
	}

	// Level normal: a plain query populates the stale-answer cache, and
	// explain works.
	var fresh map[string]any
	if code := getJSON(t, ts.URL+"/query?q="+escape("Sale")+"&explain=1", &fresh); code != 200 {
		t.Fatalf("fresh query = %d", code)
	}
	if _, ok := fresh["stats"]; !ok {
		t.Fatal("explain missing at level normal")
	}
	var cached map[string]any
	if code := getJSON(t, ts.URL+"/query?q="+escape("Sale"), &cached); code != 200 {
		t.Fatalf("cache-filling query = %d", code)
	}

	// Rung 1: no-trace. Diagnostics shed, explain strips, queries flow.
	climb(false)
	if got := srv.adm.Level(); got != admission.LevelNoTrace {
		t.Fatalf("level = %v, want no-trace", got)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stats at no-trace = %d, want 429", resp.StatusCode)
	}
	var stripped map[string]any
	if code := getJSON(t, ts.URL+"/query?q="+escape("Sale")+"&explain=1", &stripped); code != 200 {
		t.Fatalf("query at no-trace = %d, want 200", code)
	}
	if _, ok := stripped["stats"]; ok {
		t.Fatal("explain not stripped at no-trace")
	}

	// Rung 2: stale. While no update has been published since, a
	// stale-tolerant query's cached answer is the current one: a reuse,
	// with no cache= mark and the current X-DW-Version.
	climb(false)
	if got := srv.adm.Level(); got != admission.LevelStale {
		t.Fatalf("level = %v, want stale", got)
	}
	reused, stale := srv.mReused.Value(), srv.mStale.Value()
	if resp, _ := get(t, ts.URL+"/query?q="+escape("Sale")+"&stale=1"); strings.Contains(resp.Header.Get("X-DW-Staleness"), "cache=") ||
		resp.Header.Get("X-DW-Version") != "0/0" || srv.mReused.Value() != reused+1 || srv.mStale.Value() != stale {
		t.Fatalf("stale=1 at an unchanged state: X-DW-Staleness %q at %q, reused +%v, stale +%v; want a reuse at 0/0",
			resp.Header.Get("X-DW-Staleness"), resp.Header.Get("X-DW-Version"), srv.mReused.Value()-reused, srv.mStale.Value()-stale)
	}
	// After an update they get the cached answer with X-DW-Staleness and
	// the version it was cached at — 0/0, though the warehouse has moved
	// on to 0/1; fresh queries still evaluate.
	postUpdate(t, ts.URL, "insert Sale('Radio', 'Paula')")
	sresp, err := http.Get(ts.URL + "/query?q=" + escape("Sale") + "&stale=1")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != 200 {
		t.Fatalf("stale query = %d, want 200 from cache", sresp.StatusCode)
	}
	if hdr := sresp.Header.Get("X-DW-Staleness"); !strings.Contains(hdr, "cache=") {
		t.Fatalf("X-DW-Staleness = %q, want cache=<age>", hdr)
	}
	if got := sresp.Header.Get("X-DW-Version"); got != "0/0" {
		t.Fatalf("cached answer stamped X-DW-Version %q, want the version it was cached at, 0/0", got)
	}

	// Rung 3: shed-queries, reached only through sustained stalls.
	climb(true)
	if got := srv.adm.Level(); got != admission.LevelShedQueries {
		t.Fatalf("level = %v, want shed-queries", got)
	}
	qresp, err := http.Get(ts.URL + "/query?q=" + escape("Sale"))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fresh query at shed-queries = %d, want 429", qresp.StatusCode)
	}
	if qresp.Header.Get("Retry-After") == "" {
		t.Error("shed response without Retry-After")
	}
	// The cached answer is still served to stale-tolerant callers…
	sresp2, err := http.Get(ts.URL + "/query?q=" + escape("Sale") + "&stale=1")
	if err != nil {
		t.Fatal(err)
	}
	sresp2.Body.Close()
	if sresp2.StatusCode != 200 {
		t.Fatalf("stale query at shed-queries = %d, want 200", sresp2.StatusCode)
	}
	// …but a cache miss sheds even for stale-tolerant callers.
	mresp, err := http.Get(ts.URL + "/query?q=" + escape("Emp") + "&stale=1")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stale miss at shed-queries = %d, want 429", mresp.StatusCode)
	}
	// Maintenance and readiness never shed on the ladder.
	var out map[string]any
	if code := postText(t, ts.URL+"/update", `insert Sale('Z', 'Mary')`, &out); code != 200 {
		t.Fatalf("update at shed-queries = %d, want 200: %v", code, out)
	}
	if code := getJSON(t, ts.URL+"/readyz", &out); code != 200 {
		t.Fatalf("readyz at shed-queries = %d, want 200", code)
	}
}

// TestOverloadSoak drives a tiny-capacity server with the chaos
// load-spike injector while a concurrent writer applies updates, then
// checks the two invariants that matter after the dust settles: load
// WAS shed (the protection engaged), and the warehouse equals the
// oracle — exactly the rows whose updates were acknowledged, nothing
// torn. Run with -race this doubles as the overload data race soak.
func TestOverloadSoak(t *testing.T) {
	srv, ts := newOverloadServer(t, serverConfig{
		Admission: admission.Config{
			Capacity:     2,
			QueryQueue:   -1, // shed immediately at capacity: guaranteed sheds
			QueueTimeout: 20 * time.Millisecond,
		},
	})
	// Keep-alive connections for every worker: with the default
	// transport's 2-connection idle pool, per-call dial overhead dwarfs
	// the handler's service time and the server never sees real
	// concurrency — the whole point of the soak.
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}

	// Concurrent writer: unique Sale rows, counting acknowledged ones.
	// Updates may also shed (429) — that is fine, the oracle counts 200s.
	var acked atomic.Int64
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				return
			default:
			}
			body := fmt.Sprintf("insert Sale('item-%d', 'Mary')", i)
			resp, err := client.Post(ts.URL+"/update", "text/plain", strings.NewReader(body))
			if err != nil {
				continue
			}
			resp.Body.Close()
			if resp.StatusCode == 200 {
				acked.Add(1)
			}
		}
	}()

	// Choker: cyclically saturates the controller during the spike. On a
	// single-CPU runner the pure-CPU handlers finish within one scheduler
	// quantum each, so organic concurrency never reaches capacity — this
	// guarantees real saturation windows (queries arriving during a hold
	// must shed) while the released windows let goodput through.
	chokerStop := make(chan struct{})
	chokerDone := make(chan struct{})
	go func() {
		defer close(chokerDone)
		for {
			select {
			case <-chokerStop:
				return
			default:
			}
			rel, err := srv.adm.Acquire(context.Background(), admission.Query, 2)
			if err == nil {
				time.Sleep(10 * time.Millisecond)
				rel()
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	var readyzFail atomic.Int64
	rep := chaos.RunSpike(context.Background(), chaos.SpikeConfig{
		Seed:     42,
		Baseline: 2,
		Peak:     16,
		Warmup:   50 * time.Millisecond,
		Burst:    400 * time.Millisecond,
		Cooldown: 50 * time.Millisecond,
	}, func(ctx context.Context, worker int) string {
		// One worker in the pool is the readiness checker: /readyz must
		// stay 200 through the whole spike.
		if worker == 1 {
			resp, err := client.Get(ts.URL + "/readyz")
			if err != nil {
				readyzFail.Add(1)
				return "readyz-err"
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				readyzFail.Add(1)
			}
			return "readyz"
		}
		resp, err := client.Get(ts.URL + "/query?q=" + escape("Sale join Emp"))
		if err != nil {
			return "err"
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case 200:
			return "ok"
		case http.StatusTooManyRequests:
			return "shed"
		default:
			return fmt.Sprintf("status-%d", resp.StatusCode)
		}
	})
	close(chokerStop)
	<-chokerDone
	close(stopWriter)
	<-writerDone

	for label, st := range rep.ByLabel {
		t.Logf("label %q: %d", label, st.Count)
	}
	t.Logf("adm: cap=%d inflight=%d admitted(q)=%d admitted(d)=%d shed(q)=%d shed(d)=%d stalls=%d acked=%d",
		srv.adm.Capacity(), srv.adm.InFlight(), srv.adm.Admitted(admission.Query), srv.adm.Admitted(admission.Delivery),
		srv.adm.Shed(admission.Query), srv.adm.Shed(admission.Delivery), srv.adm.Stalls(), acked.Load())
	if rep.Stats("ok").Count == 0 {
		t.Fatal("no queries succeeded during the soak")
	}
	if rep.Stats("shed").Count == 0 {
		t.Fatal("overload never shed: the soak did not exercise admission control")
	}
	if n := readyzFail.Load(); n != 0 {
		t.Fatalf("/readyz failed %d times during overload", n)
	}
	if n := srv.adm.Shed(admission.Health); n != 0 {
		t.Fatalf("health class shed %d times", n)
	}

	// A response leaves before its handler returns and releases its
	// admission slot (writeBody flushes): let the last ones be released,
	// or at capacity 2 the check's own read could be shed.
	for deadline := time.Now().Add(5 * time.Second); srv.adm.InFlight() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	// Oracle check: the warehouse holds exactly the seed row plus every
	// acknowledged insert — in Sale AND propagated through maintenance
	// into Sold (each 'Mary' sale joins exactly one Emp row).
	var rels map[string]int
	if code := getJSON(t, ts.URL+"/relations", &rels); code != 200 {
		t.Fatalf("relations = %d", code)
	}
	want := int(acked.Load()) + 1 // seed row 'TV set'
	if rels["Sold"] != want {
		t.Fatalf("Sold has %d rows, oracle says %d (acked inserts %d)", rels["Sold"], want, acked.Load())
	}
	t.Logf("soak: %d calls, %d ok, %d shed, %d acked updates, level=%v",
		rep.Calls, rep.Stats("ok").Count, rep.Stats("shed").Count, acked.Load(), srv.adm.Level())
}
