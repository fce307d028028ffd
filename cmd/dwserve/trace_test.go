package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/source"
)

// newTracedServer builds a server with the given sampling rate and the
// crash-recovery regime on (so journal.append spans exist), returning
// both the server and its HTTP front.
func newTracedServer(t *testing.T, spec *dwc.Spec, rate float64) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{
		SnapshotDir: t.TempDir(),
		TraceSample: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Registered first, so it runs last: after the listener closed, the
	// remotes the test attached stopped and any checkpoint finished,
	// every span the server started must have ended.
	t.Cleanup(func() {
		srv.drainCheckpoint()
		if n := srv.tracer.Open(); n != 0 {
			t.Errorf("%d spans never ended", n)
		}
	})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func mustSpec(t *testing.T, text string) *dwc.Spec {
	t.Helper()
	spec, err := dwc.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRouteCoverage hits every route in the table exactly once and
// checks each shows up in dw_http_requests_total with a total of exactly
// one request — proof that every handler (readyz and metrics included)
// goes through the obs middleware exactly once — and that the startup
// banner documents every registered route.
func TestRouteCoverage(t *testing.T) {
	srv, ts := newTracedServer(t, mustSpec(t, testSpec), 0)
	routes := srv.routes()
	seen := map[string]bool{}
	banner := srv.describeRoutes()
	for _, r := range routes {
		if seen[r.pattern] {
			t.Fatalf("route %q registered twice", r.pattern)
		}
		seen[r.pattern] = true
		_, path, _ := strings.Cut(r.pattern, " ")
		if !strings.Contains(banner, path) {
			t.Errorf("banner missing route %q", path)
		}
	}

	// One request per route, placeholders filled with valid names (the
	// status does not matter for coverage — every completed request must
	// be counted exactly once).
	reqs := map[string]func(){
		"GET /relations/{name}":   func() { getText(t, ts.URL+"/relations/Sold") },
		"GET /reconstruct/{base}": func() { getText(t, ts.URL+"/reconstruct/Sale") },
		"GET /query":              func() { getText(t, ts.URL+"/query?q="+escape("Sale")) },
		"GET /traces/{id}":        func() { getText(t, ts.URL+"/traces/0123456789abcdef0123456789abcdef") },
		"POST /update": func() {
			var out map[string]any
			postText(t, ts.URL+"/update", "insert Sale('Radio', 'Paula')", &out)
		},
		// Both answer 4xx on a leader — the status doesn't matter for
		// coverage, only that the request flows through the middleware.
		"POST /promote": func() {
			var out map[string]any
			postText(t, ts.URL+"/promote", "", &out)
		},
		"POST /replica/repoint": func() {
			var out map[string]any
			postText(t, ts.URL+"/replica/repoint", "", &out)
		},
	}
	for _, r := range routes {
		if fn, ok := reqs[r.pattern]; ok {
			fn()
			continue
		}
		_, path, _ := strings.Cut(r.pattern, " ")
		getText(t, ts.URL+path)
	}

	_, body := getText(t, ts.URL+"/metrics")
	counts := regexp.MustCompile(`dw_http_requests_total\{[^}]*route="([^"]+)"\} (\d+)`)
	total := map[string]int{}
	for _, m := range counts.FindAllStringSubmatch(body, -1) {
		n, _ := strconv.Atoi(m[2])
		total[m[1]] += n
	}
	for _, r := range routes {
		if total[r.pattern] != 1 {
			t.Errorf("route %q counted %d requests, want exactly 1", r.pattern, total[r.pattern])
		}
	}
	if len(total) != len(routes) {
		t.Errorf("metrics report %d routes, table has %d", len(total), len(routes))
	}
}

// TestTraceHeaderAndPropagation: sampled requests echo X-DW-Trace and
// their trace is fetchable; an inbound sampled traceparent is joined
// even at rate 0, and an unsampled one suppresses recording at rate 1.
func TestTraceHeaderAndPropagation(t *testing.T) {
	_, ts := newTracedServer(t, mustSpec(t, testSpec), 1.0)
	resp, err := http.Get(ts.URL + "/relations")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-DW-Trace")
	if len(id) != 32 {
		t.Fatalf("X-DW-Trace = %q, want a 32-hex trace id", id)
	}
	var detail struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
		Text string `json:"text"`
	}
	// A request's spans end when its handler returns, after the response
	// has left: poll for the trace.
	waitUntil(t, 5*time.Second, func() bool { return getJSON(t, ts.URL+"/traces/"+id, &detail) == 200 })
	if len(detail.Spans) == 0 || detail.Spans[0].Name != "http GET /relations" {
		t.Fatalf("trace detail = %+v", detail)
	}
	if !strings.Contains(detail.Text, "http GET /relations") {
		t.Errorf("rendered tree = %q", detail.Text)
	}

	// A sampled query records its evaluation as a child span, which the
	// open-span check of newTracedServer then sees ended.
	resp, err = http.Get(ts.URL + "/query?q=" + escape("Sale join Emp"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitUntil(t, 5*time.Second, func() bool {
		return getJSON(t, ts.URL+"/traces/"+resp.Header.Get("X-DW-Trace"), &detail) == 200 && strings.Contains(detail.Text, "query.eval")
	})

	// Inbound sampled parent on a rate-0 server: the request joins the
	// caller's trace, so X-DW-Trace carries the caller's trace ID.
	_, quiet := newTracedServer(t, mustSpec(t, testSpec), 0)
	const parent = "00-11111111111111111111111111111111-2222222222222222-01"
	req, _ := http.NewRequest("GET", quiet.URL+"/healthz", nil)
	req.Header.Set("traceparent", parent)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-DW-Trace"); got != "11111111111111111111111111111111" {
		t.Errorf("joined trace id = %q", got)
	}

	// Inbound UNsampled parent on a rate-1 server: the caller decided
	// not to sample, so nothing is recorded and no header is echoed.
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", "00-33333333333333333333333333333333-4444444444444444-00")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-DW-Trace"); got != "" {
		t.Errorf("unsampled parent still recorded: X-DW-Trace = %q", got)
	}
}

// TestEndToEndLineage is the acceptance test of the tracing layer: one
// report applied at a (traced) source travels over the remote channel
// into the warehouse, and GET /traces/{id} shows the complete lineage —
// source.apply → remote.attempt → integrator.deliver with journal.append
// and per-target refresh.target children — with monotonic timestamps,
// and dw_refresh_lag_seconds observed a sample consistent with the
// trace's end-to-end duration, exemplar-linked to the trace.
func TestEndToEndLineage(t *testing.T) {
	spec := mustSpec(t, remoteSpec)
	srv, ts := newTracedServer(t, spec, 1.0)

	src, err := source.NewSource("sales", spec.DB, true, "Sale")
	if err != nil {
		t.Fatal(err)
	}
	// The in-process source shares the warehouse's tracer, so the whole
	// pipeline exports into one store (in a real deployment each process
	// keeps its own buffer and the trace ID joins them).
	src.SetTracer(srv.tracer)
	sts := httptest.NewServer(remote.NewSourceServer(src).Handler())
	t.Cleanup(sts.Close)
	c := remote.NewClient("sales", sts.URL, spec.DB, quickRemoteConfig())
	srv.AttachRemote(c)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv.startRemotes(ctx)
	t.Cleanup(srv.stopRemotes)

	// Seed Emp through the HTTP path (no source, no lag sample), then
	// drive exactly one report through the remote pipeline.
	var out map[string]any
	if code := postText(t, ts.URL+"/update", "insert Emp('Mary', 23)", &out); code != 200 {
		t.Fatalf("seed update: %v", out)
	}
	if _, err := src.Apply(mustOps(t, srv.db, "insert Sale('TV set', 'Mary')")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		var sizes map[string]int
		getJSON(t, ts.URL+"/relations", &sizes)
		return sizes["Sold"] == 1
	})

	// Find the pipeline trace: the only one rooted at source.apply.
	var list struct {
		Traces []struct {
			TraceID string `json:"traceId"`
			Root    string `json:"root"`
		} `json:"traces"`
	}
	getJSON(t, ts.URL+"/traces?limit=100", &list)
	traceID := ""
	for _, tr := range list.Traces {
		if tr.Root == "source.apply" {
			if traceID != "" {
				t.Fatalf("more than one source.apply trace")
			}
			traceID = tr.TraceID
		}
	}
	if traceID == "" {
		t.Fatalf("no source.apply trace among %+v", list.Traces)
	}

	var detail struct {
		Spans []struct {
			Name  string    `json:"name"`
			Start time.Time `json:"start"`
			End   time.Time `json:"end"`
		} `json:"spans"`
		Text string `json:"text"`
	}
	if code := getJSON(t, ts.URL+"/traces/"+traceID, &detail); code != 200 {
		t.Fatalf("GET /traces/%s = %d", traceID, code)
	}
	first := map[string]time.Time{}
	for _, sp := range detail.Spans {
		if _, ok := first[sp.Name]; !ok {
			first[sp.Name] = sp.Start
		}
	}
	order := []string{"source.apply", "remote.attempt", "integrator.deliver", "refresh.target", "journal.append"}
	for i, name := range order {
		at, ok := first[name]
		if !ok {
			t.Fatalf("lineage missing %q span:\n%s", name, detail.Text)
		}
		// refresh.target and journal.append are both children of the
		// deliver span; their mutual order is not part of the contract.
		prev := order[0]
		if i > 0 && name != "journal.append" {
			prev = order[i-1]
		} else if name == "journal.append" {
			prev = "integrator.deliver"
		}
		if at.Before(first[prev]) {
			t.Errorf("%s started %v before %s", name, first[prev].Sub(at), prev)
		}
	}
	var start, end time.Time
	for _, sp := range detail.Spans {
		if start.IsZero() || sp.Start.Before(start) {
			start = sp.Start
		}
		if sp.End.After(end) {
			end = sp.End
		}
	}
	traceDur := end.Sub(start)

	// Exactly one lag sample (the HTTP seed carries no emit timestamp),
	// bounded by the trace's end-to-end duration, exemplar-linked.
	_, body := getText(t, ts.URL+"/metrics")
	if !strings.Contains(body, "dw_refresh_lag_seconds_count 1") {
		t.Fatalf("want exactly one refresh-lag sample; metrics:\n%s", grepLines(body, "dw_refresh_lag_seconds"))
	}
	sumRe := regexp.MustCompile(`dw_refresh_lag_seconds_sum ([0-9.e+-]+)`)
	m := sumRe.FindStringSubmatch(body)
	if m == nil {
		t.Fatal("no dw_refresh_lag_seconds_sum in exposition")
	}
	lag, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if lag <= 0 || lag > traceDur.Seconds()+0.25 {
		t.Errorf("lag sample %.6fs inconsistent with trace duration %v", lag, traceDur)
	}
	if !strings.Contains(body, `trace_id="`+traceID+`"`) {
		t.Errorf("lag histogram not exemplar-linked to %s:\n%s", traceID, grepLines(body, "dw_refresh_lag_seconds"))
	}

	// The maintenance EWMAs saw both refreshes, and the pipeline lag EWMA
	// saw the remote one.
	var stats struct {
		Maintenance struct {
			Pipeline struct {
				Samples    uint64  `json:"samples"`
				LagSamples uint64  `json:"lagSamples"`
				LagNsEWMA  float64 `json:"lagNsEwma"`
			} `json:"pipeline"`
			Targets []struct {
				Target  string `json:"target"`
				Samples uint64 `json:"samples"`
			} `json:"targets"`
		} `json:"maintenance"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	p := stats.Maintenance.Pipeline
	if p.Samples != 2 || p.LagSamples != 1 || p.LagNsEWMA <= 0 {
		t.Errorf("pipeline stats = %+v, want 2 samples, 1 lag sample", p)
	}
	if len(stats.Maintenance.Targets) == 0 {
		t.Error("no per-target maintenance stats")
	}
}

// grepLines filters body to lines containing substr, for error messages.
func grepLines(body, substr string) string {
	var out []string
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
