package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/source"
	"dwcomplement/internal/testmain"
	"dwcomplement/internal/workload"
)

func TestMain(m *testing.M) { testmain.Run(m) }

// fixture builds one sealed Figure 1 source owning Sale, served over a
// real httptest listener.
func fixture(t *testing.T) (workload.Scenario, *source.Source, *httptest.Server) {
	t.Helper()
	sc, src, _, ts := fixtureServer(t)
	return sc, src, ts
}

func fixtureServer(t *testing.T) (workload.Scenario, *source.Source, *SourceServer, *httptest.Server) {
	t.Helper()
	sc := workload.Figure1(false)
	src, err := source.NewSource("sales", sc.DB, true, "Sale")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSourceServer(src)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return sc, src, srv, ts
}

// sell applies one Sale insert to src.
func sell(t *testing.T, sc workload.Scenario, src *source.Source, item, clerk string) uint64 {
	t.Helper()
	u := catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_(item), relation.String_(clerk))
	seq, err := src.Apply(u)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// quickConfig shrinks every duration so tests run in milliseconds.
func quickConfig() Config {
	return Config{
		AttemptTimeout:   time.Second,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		PollWait:         50 * time.Millisecond,
		PollInterval:     time.Millisecond,
	}
}

// TestServerReportsAndResend covers the wire protocol directly with an
// HTTP client: report ranges, paging fields, resend, and 410 Gone after
// the retained history is trimmed.
func TestServerReportsAndResend(t *testing.T) {
	sc, src, _, ts := fixtureServer(t)
	for i := 0; i < 3; i++ {
		sell(t, sc, src, fmt.Sprintf("item-%d", i), "Mary")
	}

	get := func(path string) (int, ReportBatch) {
		t.Helper()
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rb ReportBatch
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, rb
	}

	code, rb := get("/reports?from=1")
	if code != http.StatusOK || len(rb.Reports) != 3 || rb.Seq != 3 || rb.Source != "sales" {
		t.Fatalf("reports from 1: code=%d batch=%+v", code, rb)
	}
	for i, wn := range rb.Reports {
		if wn.Seq != uint64(i+1) {
			t.Fatalf("report %d has seq %d", i, wn.Seq)
		}
	}
	code, rb = get("/reports?from=3")
	if code != http.StatusOK || len(rb.Reports) != 1 || rb.Reports[0].Seq != 3 {
		t.Fatalf("reports from 3: code=%d batch=%+v", code, rb)
	}
	code, rb = get("/reports?from=4")
	if code != http.StatusOK || len(rb.Reports) != 0 {
		t.Fatalf("reports past the end: code=%d batch=%+v", code, rb)
	}
	code, rb = get("/resend?from=2")
	if code != http.StatusOK || len(rb.Reports) != 2 {
		t.Fatalf("resend from 2: code=%d batch=%+v", code, rb)
	}

	// Trimmed history answers 410 Gone — the wire form of the
	// in-process "history trimmed" error. Source and server trim from
	// the same watermark.
	src.SetRetain(1)
	if code, _ = get("/resend?from=1"); code != http.StatusGone {
		t.Fatalf("resend of trimmed history: code=%d, want 410", code)
	}
	if code, _ = get("/resend?from=3"); code != http.StatusOK {
		t.Fatalf("resend of retained suffix: code=%d, want 200", code)
	}

	if code, _ = get("/reports?from=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad from parameter: code=%d, want 400", code)
	}
}

// TestServerLongPoll: a /reports request with wait blocks until the
// next transaction lands and then returns it.
func TestServerLongPoll(t *testing.T) {
	sc, src, ts := fixture(t)
	sell(t, sc, src, "TV set", "Mary")

	done := make(chan ReportBatch, 1)
	go func() {
		req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, ts.URL+"/reports?from=2&wait=2000", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var rb ReportBatch
		_ = json.NewDecoder(resp.Body).Decode(&rb)
		done <- rb
	}()

	time.Sleep(20 * time.Millisecond) // let the poller block
	sell(t, sc, src, "VCR", "John")

	select {
	case rb := <-done:
		if len(rb.Reports) != 1 || rb.Reports[0].Seq != 2 {
			t.Fatalf("long-poll returned %+v, want the seq-2 report", rb)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long-poll did not wake on the new report")
	}
}

// TestServerHealth checks the health endpoint's fields.
func TestServerHealth(t *testing.T) {
	sc, src, ts := fixture(t)
	sell(t, sc, src, "TV set", "Mary")
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, ts.URL+"/healthz", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Source != "sales" || h.Seq != 1 || h.Retained != 1 || !h.Sealed {
		t.Fatalf("health = %+v", h)
	}
}

// failFirst is a deterministic transport: the first n requests fail
// with a connection error, the rest pass through.
type failFirst struct {
	mu   sync.Mutex
	n    int
	seen int
}

func (f *failFirst) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.seen++
	fail := f.seen <= f.n
	f.mu.Unlock()
	if fail {
		return nil, errors.New("injected connection failure")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClientRetriesTransientFailures: a fetch that fails twice succeeds
// on the third attempt within one Resend call, and the retry counter
// records both backoff rounds.
func TestClientRetriesTransientFailures(t *testing.T) {
	sc, src, ts := fixture(t)
	sell(t, sc, src, "TV set", "Mary")

	cfg := quickConfig()
	cfg.MaxRetries = 3
	cfg.BreakerThreshold = 10 // keep the breaker out of this test
	c := NewClient("sales", ts.URL, sc.DB, cfg)
	c.SetTransport(&failFirst{n: 2})
	reg := obs.NewRegistry()
	c.SetMetrics(reg)

	var got []source.Notification
	var mu sync.Mutex
	c.OnUpdate(func(n source.Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	})
	if err := c.Resend(1); err != nil {
		t.Fatalf("resend across transient failures: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Seq != 1 || got[0].Source != "sales" {
		t.Fatalf("delivered = %+v", got)
	}
	if v := c.mRetries.Value(); v != 2 {
		t.Fatalf("retries counter = %d, want 2", v)
	}
	if h := c.Health(); h.State != "healthy" || h.StalenessSec != 0 {
		t.Fatalf("health after recovery = %+v", h)
	}
}

// TestClientQuarantineAndRecovery: consecutive failures open the
// breaker (fetches fail fast with ErrQuarantined, health reports
// quarantined and growing staleness); after the cooldown a probe
// against a healed transport closes it again, completing a cycle.
func TestClientQuarantineAndRecovery(t *testing.T) {
	sc, src, ts := fixture(t)
	sell(t, sc, src, "TV set", "Mary")

	cfg := quickConfig()
	cfg.MaxRetries = -1 // no retries: each Resend is exactly one attempt
	c := NewClient("sales", ts.URL, sc.DB, cfg)
	faults := chaos.NewFaultyTransport(1, chaos.HTTPFaultConfig{Drop: 1.0}, nil)
	c.SetTransport(faults)
	c.OnUpdate(func(source.Notification) {})

	// Two failed attempts trip the threshold-2 breaker.
	for i := 0; i < 2; i++ {
		if err := c.Resend(1); err == nil {
			t.Fatalf("attempt %d succeeded through a dropping transport", i)
		}
	}
	if got := c.Breaker().State(); got != BreakerOpen {
		t.Fatalf("breaker = %v after threshold failures, want open", got)
	}
	if err := c.Resend(1); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined resend error = %v, want ErrQuarantined", err)
	}
	if !c.Quarantined() {
		t.Fatal("Quarantined() = false with the circuit open")
	}
	if h := c.Health(); h.State != "quarantined" {
		t.Fatalf("health = %+v, want quarantined", h)
	}
	if c.Staleness() <= 0 {
		t.Fatal("staleness did not grow while quarantined")
	}

	// Heal the network; after the cooldown the probe closes the circuit.
	faults.SetEnabled(false)
	time.Sleep(cfg.BreakerCooldown + 5*time.Millisecond)
	if err := c.Resend(1); err != nil {
		t.Fatalf("probe resend failed: %v", err)
	}
	if got := c.Breaker().State(); got != BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", got)
	}
	if c.Breaker().Cycles() != 1 {
		t.Fatalf("cycles = %d, want 1", c.Breaker().Cycles())
	}
	if got := c.Staleness(); got != 0 {
		t.Fatalf("staleness = %v after recovery, want 0", got)
	}
}

// TestClientPollDeliversInOrder: the poll loop streams reports through
// the callback in sequence order and advances the cursor, including
// reports applied while the loop is already running (long-poll wake).
func TestClientPollDeliversInOrder(t *testing.T) {
	sc, src, ts := fixture(t)
	for i := 0; i < 3; i++ {
		sell(t, sc, src, fmt.Sprintf("item-%d", i), "Mary")
	}

	c := NewClient("sales", ts.URL, sc.DB, quickConfig())
	var mu sync.Mutex
	var seqs []uint64
	c.OnUpdate(func(n source.Notification) {
		mu.Lock()
		seqs = append(seqs, n.Seq)
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Close()

	waitFor(t, time.Second, func() bool { return c.Cursor() == 3 })
	sell(t, sc, src, "item-3", "John")
	waitFor(t, time.Second, func() bool { return c.Cursor() == 4 })

	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("delivery order = %v", seqs)
		}
	}
}

// TestClientRewindInCallbackSurvives is the documented recovery path of
// applyRemote: a consumer that rewinds inside the delivery callback
// (because its refresh failed) must see the same report again on a
// later poll — the cursor advance must not clobber the rewind, or the
// watermark wedges and the warehouse serves stale forever.
func TestClientRewindInCallbackSurvives(t *testing.T) {
	sc, src, ts := fixture(t)
	sell(t, sc, src, "TV set", "Mary")
	sell(t, sc, src, "VCR", "John")

	c := NewClient("sales", ts.URL, sc.DB, quickConfig())
	var mu sync.Mutex
	var applied []uint64
	failedOnce := false
	c.OnUpdate(func(n source.Notification) {
		mu.Lock()
		defer mu.Unlock()
		if n.Seq == 2 && !failedOnce {
			failedOnce = true
			c.Rewind(n.Seq - 1) // "refresh failed, redeliver later"
			return
		}
		if len(applied) > 0 && n.Seq <= applied[len(applied)-1] {
			return // duplicate redelivery, like applyRemote's dedup
		}
		applied = append(applied, n.Seq)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Close()

	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(applied) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if applied[0] != 1 || applied[1] != 2 || !failedOnce {
		t.Fatalf("applied = %v (failedOnce=%v), want [1 2] with one rejected delivery", applied, failedOnce)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientCancellationNotCountedAsFailure: a request canceled on
// purpose (shutdown, a hedged loser) is not a source fault — it must
// not charge the breaker or the failure/staleness state. Otherwise a
// canceled hedge completing while the breaker is half-open re-trips it.
func TestClientCancellationNotCountedAsFailure(t *testing.T) {
	sc, _, ts := fixture(t)
	cfg := quickConfig()
	cfg.MaxRetries = -1
	c := NewClient("sales", ts.URL, sc.DB, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.SetTransport(roundTripFunc(func(r *http.Request) (*http.Response, error) {
		cancel()
		<-r.Context().Done()
		return nil, r.Context().Err()
	}))
	if _, err := c.fetch(ctx, "/reports", 1, 0); err == nil {
		t.Fatal("fetch succeeded through a canceling transport")
	}
	if got := c.Breaker().State(); got != BreakerClosed {
		t.Fatalf("breaker = %v after a deliberate cancellation, want closed", got)
	}
	if h := c.Health(); h.State != "healthy" || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after cancellation = %+v, want healthy with 0 failures", h)
	}
}

// TestTrimmedHistoryGoes410AndWedges: once the retain cap drops old
// reports, both report endpoints answer 410 Gone for the trimmed range,
// and a client below it stops retrying and surfaces the wedge in
// Health instead of silently looping on gap rewinds.
func TestTrimmedHistoryGoes410AndWedges(t *testing.T) {
	sc, src, _, ts := fixtureServer(t)
	src.SetRetain(2)
	for i := 0; i < 4; i++ {
		sell(t, sc, src, fmt.Sprintf("item-%d", i), "Mary")
	}
	if got := src.Seq() - uint64(src.Reports().Len()); got != 2 {
		t.Fatalf("trimmed watermark = %d after cap enforcement, want 2", got)
	}

	status := func(path string) int {
		t.Helper()
		req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := status("/reports?from=1"); code != http.StatusGone {
		t.Fatalf("/reports below the log = %d, want 410", code)
	}
	if code := status("/resend?from=2"); code != http.StatusGone {
		t.Fatalf("/resend below the log = %d, want 410", code)
	}
	if code := status("/reports?from=3"); code != http.StatusOK {
		t.Fatalf("/reports at the retained suffix = %d, want 200", code)
	}

	cfg := quickConfig()
	cfg.MaxRetries = 3
	c := NewClient("sales", ts.URL, sc.DB, cfg)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	c.OnUpdate(func(source.Notification) {})
	err := c.Resend(1)
	if !errors.Is(err, ErrTrimmed) {
		t.Fatalf("resend below the log: err = %v, want ErrTrimmed", err)
	}
	if v := c.mRetries.Value(); v != 0 {
		t.Fatalf("retries = %d against a definitive 410, want 0", v)
	}
	if got := c.Breaker().State(); got != BreakerClosed {
		t.Fatalf("breaker = %v after a 410 (transport works), want closed", got)
	}
	if h := c.Health(); h.State != "wedged" {
		t.Fatalf("health = %+v, want wedged", h)
	}
	// The retained suffix still serves, and a success clears the wedge.
	if err := c.Resend(3); err != nil {
		t.Fatalf("resend of the retained suffix: %v", err)
	}
	if h := c.Health(); h.State != "healthy" {
		t.Fatalf("health after a successful fetch = %+v, want healthy", h)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// TestFullLogReportCost: once the source's report log is full, a report
// allocates what it did below the cap — the oldest slot is reused, the
// retained reports are not copied per report.
func TestFullLogReportCost(t *testing.T) {
	sc, src, _, _ := fixtureServer(t)
	const capacity = 4096
	src.SetRetain(capacity)
	ops := [2]*catalog.Update{
		catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_("TV set"), relation.String_("Mary")),
		catalog.NewUpdate().MustDelete("Sale", sc.DB, relation.String_("TV set"), relation.String_("Mary")),
	}
	applied := 0
	apply := func(n int) {
		for ; n > 0; n-- {
			if _, err := src.Apply(ops[applied%2]); err != nil {
				t.Fatal(err)
			}
			applied++
		}
	}
	bytesPerReport := func() float64 {
		const n = 512
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		apply(n)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	apply(capacity / 4)
	below := bytesPerReport()
	apply(capacity)
	full := bytesPerReport()
	if src.Reports().Len() != capacity {
		t.Fatalf("retained %d reports, want the cap %d", src.Reports().Len(), capacity)
	}
	if full > 2*below {
		t.Fatalf("a report allocates %.0f B with the log full, %.0f B below the cap", full, below)
	}
}

// TestSourceRetainCap: a source capped at 4 reports keeps the latest 4
// of 10; the wire answers a resend below them as trimmed and shows the
// count on /healthz.
func TestSourceRetainCap(t *testing.T) {
	sc, src, ts := fixture(t)
	src.SetRetain(4)
	for i := 0; i < 10; i++ {
		sell(t, sc, src, fmt.Sprintf("item-%d", i), "Mary")
	}
	if n := src.Reports().Len(); n != 4 {
		t.Fatalf("source retains %d reports, want 4", n)
	}
	c := NewClient("sales", ts.URL, sc.DB, quickConfig())
	var got []uint64
	c.OnUpdate(func(n source.Notification) { got = append(got, n.Seq) })
	if err := c.Resend(6); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("Resend(6) = %v, want ErrTrimmed", err)
	}
	if err := c.Resend(7); err != nil || len(got) != 4 || got[0] != 7 {
		t.Fatalf("Resend(7) delivered %v, err %v; want seqs 7..10", got, err)
	}
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, ts.URL+"/healthz", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Retained != 4 || h.Seq != 10 {
		t.Fatalf("health = %+v, want retained 4 at seq 10", h)
	}
}
