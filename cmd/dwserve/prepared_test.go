package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/replica"
	"dwcomplement/internal/trace"
)

// poolShapes are the four query classes of the process benchmark's pool
// (point, scan, join, union), over the figure-1 schema.
var poolShapes = []string{
	"sigma{clerk = 'Mary'}(Sale)",
	"Emp",
	"pi{item, age}(Sale join Emp)",
	"pi{clerk}(Sale) union pi{clerk}(Emp)",
}

// TestPreparedQueryHit: the second request for a query text parses and
// translates nothing — the miss count stays flat — and its response is the
// first one's: status, X-DW-Version and body, byte for byte.
func TestPreparedQueryHit(t *testing.T) {
	srv, ts := newDurableServer(t, "", 0)
	q := ts.URL + "/query?q=" + escape("pi{item, age}(Sale join Emp)")
	first, want := get(t, q)
	if misses := srv.qcache.misses.Load(); misses != 1 {
		t.Fatalf("%d texts prepared by the first request, want 1", misses)
	}
	second, got := get(t, q)
	if misses := srv.qcache.misses.Load(); misses != 1 {
		t.Errorf("the second request prepared its text again (%d misses)", misses)
	}
	if first.StatusCode != 200 || second.StatusCode != first.StatusCode ||
		second.Header.Get("X-DW-Version") != first.Header.Get("X-DW-Version") || !bytes.Equal(got, want) {
		t.Errorf("hit = %d at %q: %s\nmiss = %d at %q: %s", second.StatusCode, second.Header.Get("X-DW-Version"), got,
			first.StatusCode, first.Header.Get("X-DW-Version"), want)
	}
}

// TestQueryCacheCap: cap + 50 distinct texts leave at most cap entries,
// and cap + 50 more whose answers together outgrow the byte cap leave at
// most queryCacheBytes of bodies; every text is answered correctly, held or
// evicted. At LevelStale, with no update since, a held text is a reuse of
// the bytes its entry holds and an evicted one is evaluated afresh: neither
// is marked cache=. A body larger than the byte cap keeps its plan, not its
// body.
func TestQueryCacheCap(t *testing.T) {
	// 700 more clerks with long names, aged 1000 and up, put ≈ 85 KB in an
	// answer that lists Emp: none matches a small age, all but Mary and
	// Paula a large one.
	const clerks = 700
	var spec strings.Builder
	spec.WriteString(testSpec)
	for i := range clerks {
		fmt.Fprintf(&spec, "insert Emp('clerk-%d-%s', %d)\n", i, strings.Repeat("x", 100), 1000+i%100)
	}
	clk := &ladderClock{}
	srv, err := newServer(mustSpec(t, spec.String()), dwc.Theorem22(), serverConfig{
		Admission: admission.Config{
			Capacity: 64,
			Ladder:   admission.LadderConfig{High: 0.9, Low: 0.5, Climb: 50 * time.Millisecond, Cool: time.Hour, Now: clk.now},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	n := queryCacheSize + 50
	path := func(i int) string {
		if i < n {
			return "/query?q=" + escape(fmt.Sprintf("sigma{age = %d}(Emp)", i))
		}
		return "/query?q=" + escape(fmt.Sprintf("sigma{age > %d}(Emp)", i-n+100))
	}
	wantCount := func(i int) int {
		switch {
		case i >= n:
			return clerks
		case i == 23 || i == 32: // Mary and Paula
			return 1
		}
		return 0
	}
	held := func() (entries, order, bytes int) {
		srv.qcache.mu.Lock()
		defer srv.qcache.mu.Unlock()
		return len(srv.qcache.entries), len(srv.qcache.order), srv.qcache.bytes
	}
	bodies := map[int][]byte{}
	answered := 0
	for i := range 2 * n {
		resp, body := get(t, ts.URL+path(i))
		var got struct {
			Result struct{ Count int } `json:"result"`
		}
		if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != 200 || got.Result.Count != wantCount(i) {
			t.Fatalf("text %d: status %d, %d rows, want %d (%v)", i, resp.StatusCode, got.Result.Count, wantCount(i), err)
		}
		if i == 0 || i == 2*n-1 {
			bodies[i] = body
		}
		if i >= n {
			answered += len(body)
		}
		if entries, order, _ := held(); i == n-1 && (entries > queryCacheSize || order != entries) {
			t.Errorf("cache holds %d entries (%d in its order) after %d texts, cap %d", entries, order, n, queryCacheSize)
		}
	}
	if answered <= queryCacheBytes {
		t.Fatalf("the large answers hold %d bytes in all, not more than the %d-byte cap", answered, queryCacheBytes)
	}
	if entries, order, bytes := held(); entries > queryCacheSize || order != entries || bytes > queryCacheBytes {
		t.Errorf("cache holds %d entries (%d in its order) and %d bytes of answers, caps %d and %d",
			entries, order, bytes, queryCacheSize, queryCacheBytes)
	}
	if misses := srv.qcache.misses.Load(); misses != int64(2*n) {
		t.Errorf("%d misses for %d distinct texts", misses, 2*n)
	}

	for range 2 {
		srv.adm.Ladder().Observe(1.5, false)
		clk.advance(60 * time.Millisecond)
		srv.adm.Ladder().Observe(1.5, false)
	}
	if got := srv.adm.Level(); got != admission.LevelStale {
		t.Fatalf("level = %v, want stale", got)
	}
	for _, c := range []struct {
		i      int
		reused bool
	}{{2*n - 1, true}, {0, false}} {
		before := srv.mReused.Value()
		resp, body := get(t, ts.URL+path(c.i)+"&stale=1")
		reused := srv.mReused.Value() == before+1
		if cached := strings.HasPrefix(resp.Header.Get("X-DW-Staleness"), "cache="); resp.StatusCode != 200 ||
			cached || reused != c.reused || !bytes.Equal(body, bodies[c.i]) {
			t.Errorf("stale request for text %d: status %d, marked cache= %v (want false), reused %v (want %v), body %.200s, want %.200s",
				c.i, resp.StatusCode, cached, reused, c.reused, body, bodies[c.i])
		}
	}

	srv.qcache.put("oversized", queryEntry{queryPlan: &queryPlan{query: "oversized"}, body: make([]byte, queryCacheBytes+1)})
	if e, ok := srv.qcache.get("oversized"); !ok || e.query != "oversized" || e.body != nil {
		t.Errorf("an answer over the byte cap: held %v, plan %q, %d body bytes; want its plan alone", ok, e.query, len(e.body))
	}
	if _, _, bytes := held(); bytes > queryCacheBytes {
		t.Errorf("%d bytes held, cap %d", bytes, queryCacheBytes)
	}
}

// TestReuseFollowsTheState: a plain answer is served from its stored bytes
// exactly while the state it was computed from is published, or carried
// forward across commits that provably leave it unchanged. After each
// transition — an update that changes the answer, one that does not reach
// it, a no-op update, a follower bootstrap, a promotion — the body served
// is a fresh answerBody(EvalExpr(Q̂, v.w)) under the new X-DW-Version. The
// promotion, which moves the stamp and not the state, is a reuse; the
// update the answer does not see (a hire of 40, whom the σ rejects) and
// the no-op are carried; the bootstrap replaces the state with no recorded
// update, a gap, and evaluates. explain=1 and explain=2 always evaluate.
func TestReuseFollowsTheState(t *testing.T) {
	const q = "pi{item, age}(Sale join sigma{age < 40}(Emp))"
	leader, lts := newReplicaNode(t)
	fsrv, fts := newReplicaNode(t)
	// check asks srv for q and holds the answer to Q̂ evaluated on the
	// published state; reuse is "reused", "carried", "evaluated", or "" for
	// any of them.
	check := func(label string, srv *server, base, reuse string) {
		t.Helper()
		before, carriedBefore := srv.mReused.Value(), srv.carried.Load()
		resp, got := get(t, base+"/query?q="+escape(q))
		v := srv.cur.Load()
		parsed := dwc.MustParseExpr(q)
		qHat, err := v.w.TranslateQuery(parsed)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := dwc.EvalExpr(context.Background(), qHat, v.w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := answerBody(parsed.String(), qHat.String(), rows.Relation(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || resp.Header.Get("X-DW-Version") != v.stamp() || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d at %q: %s\nwant 200 at %q: %s", label, resp.StatusCode, resp.Header.Get("X-DW-Version"), got, v.stamp(), want)
		}
		how := "evaluated"
		if srv.carried.Load() > carriedBefore {
			how = "carried"
		} else if srv.mReused.Value() > before {
			how = "reused"
		}
		if reuse != "" && how != reuse {
			t.Errorf("%s: answer %s, want %s", label, how, reuse)
		}
	}

	check("boot", leader, lts.URL, "evaluated")
	check("boot, asked again", leader, lts.URL, "reused")
	postUpdate(t, lts.URL, "insert Sale('Radio', 'Paula')")
	check("an update that changes the answer", leader, lts.URL, "evaluated")
	check("that update, asked again", leader, lts.URL, "reused")
	postUpdate(t, lts.URL, "insert Emp('Zoe', 40)")
	check("an update the answer does not see", leader, lts.URL, "carried")
	check("that update, asked again", leader, lts.URL, "reused")
	postUpdate(t, lts.URL, "insert Sale('Radio', 'Paula')")
	check("a no-op update", leader, lts.URL, "carried")

	follow(t, fsrv, lts.URL)
	waitLSN(t, fsrv, 3)
	fsrv.stopFollower()
	check("a follower", fsrv, fts.URL, "evaluated")
	check("a follower, asked again", fsrv, fts.URL, "reused")
	postUpdate(t, lts.URL, "insert Sale('Phone', 'Mary')")
	c := replica.NewClient(lts.URL, fsrv.db, remote.Config{AttemptTimeout: time.Second, MaxRetries: -1, Seed: 1})
	if err := fsrv.bootstrapFollower(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if _, lsn, _ := coords(fsrv); lsn != 4 {
		t.Fatalf("bootstrapped at LSN %d, want 4", lsn)
	}
	check("a follower bootstrap", fsrv, fts.URL, "evaluated")
	var out map[string]any
	if code := postText(t, fts.URL+"/promote?epoch=2", "", &out); code != http.StatusOK {
		t.Fatalf("promote: status %d: %v", code, out)
	}
	check("a promotion", fsrv, fts.URL, "reused")

	for _, level := range []string{"1", "2"} {
		before := fsrv.mReused.Value()
		var body map[string]json.RawMessage
		if code := getJSON(t, fts.URL+"/query?explain="+level+"&q="+escape(q), &body); code != 200 || body["stats"] == nil ||
			(level == "2") != (body["plan"] != nil) || fsrv.mReused.Value() != before {
			t.Errorf("explain=%s: status %d, keys %v, %d reused: want an evaluated answer with its diagnostics",
				level, code, slices.Collect(maps.Keys(body)), fsrv.mReused.Value()-before)
		}
	}
}

// TestReuseLedger: a reused answer, and one carried across a commit that
// does not reach it, counts in dw_queries_total and
// dw_queries_reused_total, observes dw_query_duration_seconds once — so its
// _count stays dw_queries_total — is no stale answer, shows in /stats
// queriesReused (a carried one in queriesCarried too), and marks its
// request span answer=reused or answer=carried. The first check after a
// commit registers the text's carry plan and evaluates (untracked); a
// commit that reaches the answer makes the next request evaluate; /stats
// carryFallbacks says why, and carryPlans shows the registered plan, the
// tuples the commits tested or found through its σs' index, and the commit
// that reached it.
func TestReuseLedger(t *testing.T) {
	srv, ts := newOverloadServer(t, serverConfig{TraceSample: 1})
	q := ts.URL + "/query?q=" + escape("sigma{clerk = 'Mary'}(Sale join Emp)")
	var traceID string
	for range 3 { // a miss, then two reuses
		resp, _ := get(t, q)
		traceID = resp.Header.Get("X-DW-Trace")
	}
	get(t, q+"&explain=1")
	postUpdate(t, ts.URL, "insert Emp('Zoe', 40)") // the plan is not tracked yet: registered, and evaluated
	get(t, q)
	postUpdate(t, ts.URL, "insert Emp('Zed', 41)") // Zed is not Mary: the answer is carried
	resp, _ := get(t, q)
	carriedID := resp.Header.Get("X-DW-Trace")
	postUpdate(t, ts.URL, "insert Sale('Radio', 'Mary')") // Mary's sale: the answer changed
	get(t, q)
	_, metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{"dw_queries_total 7", "dw_queries_reused_total 3", "dw_query_duration_seconds_count 7", "dw_stale_answers_total 0"} {
		if !strings.Contains(metrics, "\n"+want+"\n") {
			t.Errorf("metrics lack %q", want)
		}
	}
	var stats struct {
		Queries, QueriesReused, QueriesCarried, QueriesBehind int64
		CarryFallbacks                                        map[string]int64
		CarryPlans                                            carryStats
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Queries != 7 || stats.QueriesReused != 3 || stats.QueriesCarried != 1 || stats.QueriesBehind != 0 {
		t.Errorf("/stats: %d queries, %d reused, %d carried, %d behind; want 7, 3, 1 and 0", stats.Queries, stats.QueriesReused, stats.QueriesCarried, stats.QueriesBehind)
	}
	if want := map[string]int64{"untracked": 1, "reached": 1}; !maps.Equal(stats.CarryFallbacks, want) {
		t.Errorf("/stats carryFallbacks %v, want %v", stats.CarryFallbacks, want)
	}
	// Zed and the sale were each looked up in their base's index on clerk;
	// only the sale found the plan there, and reached it.
	if want := (carryStats{Registered: 1, Reached: 1, Tested: 1, Indexed: 2}); stats.CarryPlans != want {
		t.Errorf("/stats carryPlans %+v, want %+v", stats.CarryPlans, want)
	}
	for _, c := range []struct{ id, answer string }{{traceID, "reused"}, {carriedID, "carried"}} {
		id, ok := trace.ParseTraceID(c.id)
		if !ok {
			t.Fatalf("X-DW-Trace %q", c.id)
		}
		waitUntil(t, 5*time.Second, func() bool { // the span ends after the response has left
			spans, _ := srv.tracer.Store().Trace(id)
			for _, sp := range spans {
				if slices.Contains(sp.Attrs, trace.Attr{Key: "answer", Value: c.answer}) {
					return true
				}
			}
			return false
		})
	}
}

// gateWriter holds every write until open is closed.
type gateWriter struct {
	open chan struct{}
	buf  lockedBuffer
}

func (g *gateWriter) Write(p []byte) (int, error) {
	<-g.open
	return g.buf.Write(p)
}

// TestResponseLeavesBeforeLogLine: with the server's log writer blocked, a
// query and an update still reach their clients whole; once it is
// released, each log line carries its request's status and byte count.
func TestResponseLeavesBeforeLogLine(t *testing.T) {
	srv, err := newServer(mustSpec(t, testSpec), dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateWriter{open: make(chan struct{})}
	srv.log = slog.New(slog.NewTextHandler(gate, nil))
	ts := httptest.NewServer(srv.handler())
	var release sync.Once
	defer ts.Close()
	defer release.Do(func() { close(gate.open) })

	// One connection a request: a kept-alive one is read again only after
	// its handler, log line included, has returned.
	client := http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	read := func(resp *http.Response, err error) (int, []byte) {
		t.Helper()
		if err != nil {
			t.Fatalf("no response while the log writer is blocked: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("body incomplete while the log writer is blocked: %v", err)
		}
		if resp.ContentLength != int64(len(body)) || resp.TransferEncoding != nil {
			t.Errorf("Content-Length %d for %d bytes, Transfer-Encoding %v", resp.ContentLength, len(body), resp.TransferEncoding)
		}
		return resp.StatusCode, body
	}
	qStatus, qBody := read(client.Get(ts.URL + "/query?q=" + escape("Sale")))
	uStatus, uBody := read(client.Post(ts.URL+"/update", "text/plain", strings.NewReader("insert Sale('Radio', 'Paula')")))
	if qStatus != 200 || uStatus != 200 {
		t.Fatalf("query %d, update %d", qStatus, uStatus)
	}

	release.Do(func() { close(gate.open) })
	lines := []*regexp.Regexp{
		regexp.MustCompile(fmt.Sprintf(`msg=request id=\S+ route="GET /query" status=200 bytes=%d `, len(qBody))),
		regexp.MustCompile(fmt.Sprintf(`msg=request id=\S+ route="POST /update" status=200 bytes=%d `, len(uBody))),
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		logged := gate.buf.String()
		if lines[0].MatchString(logged) && lines[1].MatchString(logged) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want log lines %v, have:\n%s", lines, logged)
		}
	}
}

// TestConcurrentPreparedQueries: readers repeat the pool's texts (hits)
// and send fresh ones (misses, evictions) while a writer commits updates;
// afterwards each pool text's answer, and the body its entry holds, equal
// an uncached answer from a fresh server on the same state, byte for byte.
func TestConcurrentPreparedQueries(t *testing.T) {
	const updates, readers = 30, 4
	srv, ts := newDurableServer(t, "", 0)
	ops := make([]string, updates)
	for i := range ops {
		ops[i] = fmt.Sprintf("insert Emp('e-%d', %d)\ninsert Sale('item-%d', 'e-%d')", i, 20+i%7, i, i/2)
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	for rd := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := rd; !done.Load(); i++ {
				q := poolShapes[i%len(poolShapes)]
				if i%3 == 0 {
					q = fmt.Sprintf("sigma{age = %d}(Emp)", i)
				}
				if got, err := queryStamped(ts.URL, q); err != nil || got.status != http.StatusOK {
					t.Errorf("%s: %+v, %v", q, got, err)
					return
				}
			}
		}()
	}
	for _, op := range ops {
		postUpdate(t, ts.URL, op)
	}
	done.Store(true)
	wg.Wait()

	fresh := newTestServer(t, "")
	for _, op := range ops {
		postUpdate(t, fresh.URL, op)
	}
	for _, q := range poolShapes {
		_, want := get(t, fresh.URL+"/query?q="+escape(q))
		if _, got := get(t, ts.URL+"/query?q="+escape(q)); !bytes.Equal(got, want) {
			t.Errorf("%s: cached answer\n%s\nwant\n%s", q, got, want)
		}
		if e, _ := srv.qcache.get(q); !bytes.Equal(e.body, want) {
			t.Errorf("%s: the entry holds\n%s\nwant\n%s", q, e.body, want)
		}
	}
}

// FuzzPreparedQuery answers a query text twice through one server — a
// miss, then a hit, which a 200 serves from the stored bytes — and once
// through a fresh one: the three statuses are equal, and so are the bodies
// of a 200.
func FuzzPreparedQuery(f *testing.F) {
	for _, q := range append(poolShapes, "", "Sale join", "Nope", "pi{nope}(Sale)", "sigma{age = 'x'}(Emp)", "Sale union Emp") {
		f.Add(q)
	}
	newHandler := func(t testing.TB) http.Handler {
		spec, err := dwc.ParseSpec(testSpec)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := newServer(spec, dwc.Theorem22(), serverConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return srv.handler()
	}
	shared := newHandler(f)
	f.Fuzz(func(t *testing.T, q string) {
		req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape(q), nil)
		answer := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		miss, hit, fresh := answer(shared), answer(shared), answer(newHandler(t))
		if miss.Code != hit.Code || miss.Code != fresh.Code {
			t.Fatalf("%q: status %d, then %d; a fresh server says %d", q, miss.Code, hit.Code, fresh.Code)
		}
		if miss.Code == 200 && (!bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) || !bytes.Equal(miss.Body.Bytes(), fresh.Body.Bytes())) {
			t.Fatalf("%q: bodies differ:\nmiss  %s\nhit   %s\nfresh %s", q, miss.Body, hit.Body, fresh.Body)
		}
	})
}
