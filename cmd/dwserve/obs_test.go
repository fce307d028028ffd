package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/workload"
)

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestMetricsEndpoint drives one query and one update through the server
// and checks the Prometheus exposition reflects both paths.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var q map[string]any
	getJSON(t, ts.URL+"/query?q="+escape("Sale join Emp"), &q)
	var res map[string]any
	if code := postText(t, ts.URL+"/update", "insert Sale('Radio', 'Paula')", &res); code != 200 {
		t.Fatalf("update: %v", res)
	}

	code, body := getText(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE dw_queries_total counter",
		"dw_queries_total 1",
		"dw_refreshes_total 1",
		"# TYPE dw_query_duration_seconds histogram",
		`dw_query_duration_seconds_bucket{le="+Inf"} 1`,
		"dw_query_duration_seconds_count 1",
		"# TYPE dw_refresh_duration_seconds histogram",
		"# TYPE dw_http_requests_total counter",
		`dw_http_requests_total{code="200",route="GET /query"} 1`,
		`dw_http_requests_total{code="200",route="POST /update"} 1`,
		`dw_http_request_duration_seconds_count{route="GET /query"} 1`,
		`dw_refresh_changes_total{relation="Sold"} 1`,
		"# TYPE dw_warehouse_tuples gauge",
		"# TYPE dw_boot_phase_seconds gauge",
		`dw_boot_phase_seconds{phase="complement"} `,
		`dw_boot_phase_seconds{phase="materialize"} `,
		"dw_http_in_flight_requests 1", // the /metrics request itself
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestQueryExplainPlan checks explain=2: a per-operator plan tree whose
// node counters sum to the flat totals, plus a rendered text tree.
func TestQueryExplainPlan(t *testing.T) {
	ts := newTestServer(t, "")
	var body struct {
		Stats struct {
			Emitted int64 `json:"emitted"`
			Scanned int64 `json:"scanned"`
			Plan    []any `json:"plan"` // explain=1/2 strip it from stats
		} `json:"stats"`
		Plan     []*dwc.PlanNode `json:"plan"`
		PlanText string          `json:"planText"`
	}
	if code := getJSON(t, ts.URL+"/query?q="+escape("pi{clerk}(Sale join Emp)")+"&explain=2", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(body.Plan) == 0 || body.PlanText == "" {
		t.Fatalf("explain=2 returned no plan: %+v", body)
	}
	if len(body.Stats.Plan) != 0 {
		t.Error("plan duplicated inside stats")
	}
	var emitted, scanned int64
	var sum func(n *dwc.PlanNode)
	sum = func(n *dwc.PlanNode) {
		emitted += n.Emitted
		scanned += n.Scanned
		for _, c := range n.Children {
			sum(c)
		}
	}
	for _, root := range body.Plan {
		sum(root)
	}
	if emitted != body.Stats.Emitted || scanned != body.Stats.Scanned {
		t.Errorf("plan sums (emitted=%d scanned=%d) disagree with flat stats %+v",
			emitted, scanned, body.Stats)
	}
	if !strings.Contains(body.PlanText, "└── ") {
		t.Errorf("planText not a tree:\n%s", body.PlanText)
	}

	// A restricted node says so, with the size of the probe that spared
	// it a full evaluation — in the tree and in its rendering.
	body.Plan, body.PlanText = nil, ""
	if code := getJSON(t, ts.URL+"/query?q="+escape("sigma{clerk = 'Mary'}(Sale)")+"&explain=2", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	leaf := body.Plan[0]
	for len(leaf.Children) > 0 {
		leaf = leaf.Children[len(leaf.Children)-1]
	}
	if !leaf.Restricted || leaf.ProbeRows != 1 || !strings.Contains(body.PlanText, "⋉probe[1]") {
		t.Errorf("constant-probe leaf: restricted=%v probeRows=%d, planText:\n%s", leaf.Restricted, leaf.ProbeRows, body.PlanText)
	}

	// explain=1 keeps the flat stats but no tree.
	var flat map[string]any
	getJSON(t, ts.URL+"/query?q="+escape("Sale")+"&explain=1", &flat)
	if _, ok := flat["plan"]; ok {
		t.Error("explain=1 leaked the plan tree")
	}
	if _, ok := flat["stats"]; !ok {
		t.Error("explain=1 dropped the stats")
	}
}

// TestStatsLastRefresh: /stats reports the most recent refresh's spans
// and lookup counters. Inserting a sale for Paula reaches every target:
// Sold probes Emp under the inserted row, while the stored complement
// C_Emp = Emp ∖ π(Sale ⋈ Emp) takes its delta from the update's and the
// shared join's deltas without a read, and loses Paula that way. The
// lookups normalization makes are counted all the same.
func TestStatsLastRefresh(t *testing.T) {
	ts := newTestServer(t, "")
	var res map[string]any
	if code := postText(t, ts.URL+"/update", "insert Sale('Radio', 'Paula')", &res); code != 200 {
		t.Fatalf("update: %v", res)
	}
	var stats struct {
		LastRefresh struct {
			Spans []struct {
				Target  string `json:"target"`
				Applied int    `json:"applied"`
				WallNs  int64  `json:"wallNs"`
				Scanned int64  `json:"scanned"`
				Probed  int64  `json:"probed"`
			} `json:"spans"`
			RestrictedLookups   int64 `json:"restrictedLookups"`
			FullReconstructions int64 `json:"fullReconstructions"`
		} `json:"lastRefresh"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	lr := stats.LastRefresh
	if len(lr.Spans) == 0 {
		t.Fatalf("no refresh spans: %+v", stats)
	}
	spans := make(map[string]int)
	for i, sp := range lr.Spans {
		spans[sp.Target] = i
	}
	if i, ok := spans["Sold"]; !ok || lr.Spans[i].Probed == 0 || lr.Spans[i].Applied == 0 {
		t.Errorf("Sold's span did not probe and apply: %+v", lr.Spans)
	}
	if i, ok := spans["C_Emp"]; !ok || lr.Spans[i].Applied == 0 {
		t.Errorf("C_Emp's span applied nothing: %+v", lr.Spans)
	}
	for _, sp := range lr.Spans {
		if sp.Target != "Sold" && sp.Scanned+sp.Probed != 0 {
			t.Errorf("complement %s's span read under its delta: %+v", sp.Target, sp)
		}
	}
	if lr.RestrictedLookups == 0 {
		t.Errorf("no restricted lookups recorded: %+v", lr)
	}
	assertRefreshTelemetry(t, ts.URL, "Sold")
}

// TestCheckpointPagesTelemetry: a checkpoint reports how many row pages it
// had to encode and how many it found cached with the page — in /stats
// and as dw_checkpoint_pages_total. The first one after a first boot
// encodes every page; the second, one update later, the few pages that
// update wrote.
func TestCheckpointPagesTelemetry(t *testing.T) {
	spec := mustSpec(t, workload.Section5Spec)
	workload.FillSection5(spec.State, 20_000)
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{SnapshotDir: t.TempDir(), CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	defer srv.drainCheckpoint()
	total := 0
	for _, r := range srv.cur.Load().w.State() {
		total += r.NumPages()
	}
	checkpoint := func(op string) (encoded, reused int) {
		postUpdate(t, ts.URL, op)
		srv.drainCheckpoint()
		var stats struct {
			Checkpoint struct {
				LastBytes    int64 `json:"lastBytes"`
				PagesEncoded int   `json:"pagesEncoded"`
				PagesReused  int   `json:"pagesReused"`
			} `json:"checkpoint"`
		}
		getJSON(t, ts.URL+"/stats", &stats)
		if fi, err := os.Stat(checkpointPath(srv.cfg.SnapshotDir)); err != nil || fi.Size() != stats.Checkpoint.LastBytes {
			t.Errorf("/stats checkpoint.lastBytes = %d, state.snap: %v, %v", stats.Checkpoint.LastBytes, fi, err)
		}
		return stats.Checkpoint.PagesEncoded, stats.Checkpoint.PagesReused
	}
	encoded1, reused1 := checkpoint("insert Order_paris(900001, 1, 1, 'paris', 5)")
	if total < 20 || encoded1 != total || reused1 != 0 {
		t.Fatalf("first checkpoint of %d pages: %d encoded, %d reused; want all encoded", total, encoded1, reused1)
	}
	var victim string // a row of the first page: the delete writes that page and the last
	fact := srv.cur.Load().w.State()["FactParis"]
	for tu := range fact.All() {
		victim = fmt.Sprintf("delete Order_paris(%v, %v, %v, 'paris', %v)", fact.Get(tu, "okey"), fact.Get(tu, "ckey"), fact.Get(tu, "pkey"), fact.Get(tu, "qty"))
		break
	}
	encoded2, reused2 := checkpoint(victim)
	if encoded2 == 0 || encoded2 > 3 || encoded2+reused2 != total {
		t.Fatalf("second checkpoint of %d pages: %d encoded, %d reused; want 1–3 encoded, the rest reused", total, encoded2, reused2)
	}
	_, body := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE dw_checkpoint_pages_total counter",
		fmt.Sprintf(`dw_checkpoint_pages_total{kind="encoded"} %d`, encoded1+encoded2),
		fmt.Sprintf(`dw_checkpoint_pages_total{kind="reused"} %d`, reused2),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestObservabilityHammer drives /query, /update, /stats and /metrics
// concurrently; run with -race. This is the regression test for the
// stats-accumulation data race the flat counters used to have (readers
// adding to shared aggregates without statsMu).
func TestObservabilityHammer(t *testing.T) {
	ts := newTestServer(t, "")
	var wg sync.WaitGroup
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				op := fmt.Sprintf("insert Sale('hammer-%d-%d', 'Mary')", wr, i)
				resp, err := http.Post(ts.URL+"/update", "text/plain", strings.NewReader(op))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(wr)
	}
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			urls := []string{
				ts.URL + "/query?q=" + escape("pi{clerk}(Sale join Emp)") + "&explain=2",
				ts.URL + "/query?q=" + escape("Sale"),
				ts.URL + "/stats",
				ts.URL + "/metrics",
			}
			for i := 0; i < 20; i++ {
				resp, err := http.Get(urls[(rd+i)%len(urls)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("status %d from %s", resp.StatusCode, urls[(rd+i)%len(urls)])
					return
				}
			}
		}(rd)
	}
	wg.Wait()

	// Flat counters must account for exactly the requests that ran.
	var stats struct {
		Queries    int64 `json:"queries"`
		Refreshes  int   `json:"refreshes"`
		QueryStats struct {
			Emitted int64 `json:"emitted"`
		} `json:"queryStats"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Queries != 4*20/2 { // half of each reader's URLs are queries
		t.Errorf("queries = %d, want %d", stats.Queries, 4*20/2)
	}
	if stats.Refreshes != 2*15 {
		t.Errorf("refreshes = %d, want %d", stats.Refreshes, 2*15)
	}
	if stats.QueryStats.Emitted == 0 {
		t.Error("query stats lost")
	}
	var m map[string]any
	if code := getJSON(t, ts.URL+"/query?q="+escape("Sale"), &m); code != 200 {
		t.Errorf("post-hammer query failed: %d", code)
	}
}

// assertRefreshTelemetry checks that a node which has applied at least
// one update reports it in every refresh series: the /stats totals and
// last-refresh summary, and the refresh histograms and counters on
// /metrics. All three apply paths — POST /update, a -source report, a
// -follow stream record — must look the same here.
func assertRefreshTelemetry(t *testing.T, baseURL, changedRelation string) {
	t.Helper()
	var stats struct {
		Refreshes     int   `json:"refreshes"`
		RefreshWallNs int64 `json:"refreshWallNs"`
		RefreshStats  struct {
			Scanned int64 `json:"scanned"`
		} `json:"refreshStats"`
		LastRefresh struct {
			Spans             []any `json:"spans"`
			RestrictedLookups int64 `json:"restrictedLookups"`
			CopiedBytes       int64 `json:"copiedBytes"`
			WallNs            int64 `json:"wallNs"`
		} `json:"lastRefresh"`
	}
	getJSON(t, baseURL+"/stats", &stats)
	if stats.Refreshes == 0 || stats.RefreshWallNs <= 0 || stats.RefreshStats.Scanned == 0 {
		t.Errorf("/stats refresh totals not moved: %+v", stats)
	}
	if len(stats.LastRefresh.Spans) == 0 || stats.LastRefresh.WallNs <= 0 || stats.LastRefresh.CopiedBytes <= 0 {
		t.Errorf("/stats lastRefresh not recorded: %+v", stats.LastRefresh)
	}
	_, metrics := getText(t, baseURL+"/metrics")
	for _, series := range []string{
		"dw_refresh_duration_seconds_count",
		"dw_refresh_restricted_lookups_total",
		"dw_refresh_copied_bytes_total",
		"dw_refreshes_total",
		`dw_refresh_changes_total{relation="` + changedRelation + `"}`,
	} {
		moved := false
		for _, line := range strings.Split(metrics, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok && rest != "0" {
				moved = true
			}
		}
		if !moved {
			t.Errorf("%s did not move", series)
		}
	}
}

// TestRequestLogLineBytes: the access-log line logRequest writes is the
// line s.log.Info writes for the same request, byte for byte, under the
// text and the JSON handler (the time dropped, the one field that
// differs), and nothing when the level hides Info.
func TestRequestLogLineBytes(t *testing.T) {
	noTime := func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}
	rec := obs.NewStatusRecorder(httptest.NewRecorder())
	rec.WriteHeader(http.StatusCreated)
	rec.Write([]byte("a body of some bytes"))
	elapsed := 1234567 * time.Nanosecond
	for _, c := range []struct {
		name  string
		level slog.Level
		json  bool
	}{{"text", slog.LevelInfo, false}, {"json", slog.LevelDebug, true}, {"quiet", slog.LevelWarn, false}} {
		var got, want bytes.Buffer
		opts := &slog.HandlerOptions{Level: c.level, ReplaceAttr: noTime}
		handler := func(w io.Writer) slog.Handler {
			if c.json {
				return slog.NewJSONHandler(w, opts)
			}
			return slog.NewTextHandler(w, opts)
		}
		srv := &server{log: slog.New(handler(&got))}
		srv.logRequest("0123456789abcdef", "/update", rec, elapsed)
		slog.New(handler(&want)).Info("request",
			"id", "0123456789abcdef",
			"route", "/update",
			"status", rec.Status,
			"bytes", rec.Bytes,
			"durUs", elapsed.Microseconds(),
		)
		if got.String() != want.String() {
			t.Errorf("%s: logRequest wrote\n%q\nslog.Logger.Info writes\n%q", c.name, got.String(), want.String())
		}
		if c.name == "quiet" && got.Len() != 0 {
			t.Errorf("quiet: wrote %q below the handler's level", got.String())
		}
	}
}
