package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/source"
	"dwcomplement/internal/testmain"
	"dwcomplement/internal/trace"
)

func TestMain(m *testing.M) { testmain.Run(m) }

const testSpec = `
relation Sale(item string, clerk string)
relation Emp(clerk string, age int) key(clerk)
view Sold = pi{item, clerk, age}(Sale join Emp)
`

// TestApplyAndReport drives the full dwsource surface: local
// transactions through POST /apply, reports out of GET /reports,
// ownership enforcement, and health.
func TestApplyAndReport(t *testing.T) {
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.NewSource("sales", spec.DB, true, "Sale")
	if err != nil {
		t.Fatal(err)
	}
	handler, _ := newSourceHandler(src, spec.DB, sourceHandlerConfig{})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/apply", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	code, out := post(`insert Sale('TV set', 'Mary')`)
	if code != http.StatusOK || out["seq"] != float64(1) {
		t.Fatalf("apply = %d %v", code, out)
	}
	// A foreign relation is refused: this source owns Sale only.
	if code, out = post(`insert Emp('Mary', 23)`); code != http.StatusUnprocessableEntity {
		t.Fatalf("foreign apply = %d %v, want 422", code, out)
	}
	// Garbage is a 400.
	if code, _ = post(`frobnicate`); code != http.StatusBadRequest {
		t.Fatalf("bad ops = %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/reports?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch struct {
		Source  string `json:"source"`
		Seq     uint64 `json:"seq"`
		Reports []struct {
			Seq uint64 `json:"seq"`
		} `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if batch.Source != "sales" || batch.Seq != 1 || len(batch.Reports) != 1 || batch.Reports[0].Seq != 1 {
		t.Fatalf("reports = %+v", batch)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h struct {
		Source string `json:"source"`
		Sealed bool   `json:"sealed"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Source != "sales" || !h.Sealed {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestApplyJoinsCallerTrace: a traceparent header on POST /apply makes
// the transaction's apply span — and the traceparent stamped onto its
// report — part of the caller's trace.
func TestApplyJoinsCallerTrace(t *testing.T) {
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.NewSource("sales", spec.DB, true, "Sale")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{Rate: 0, Seed: 7}) // only the caller samples
	src.SetTracer(tr)
	t.Cleanup(func() {
		if n := tr.Open(); n != 0 {
			t.Errorf("%d spans never ended", n)
		}
	})
	handler, _ := newSourceHandler(src, spec.DB, sourceHandlerConfig{})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	const parent = "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbb-01"
	req, _ := http.NewRequest("POST", ts.URL+"/apply", strings.NewReader(`insert Sale('TV set', 'Mary')`))
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply = %d", resp.StatusCode)
	}
	// The report on the wire carries the caller's trace and the emit time.
	rresp, err := http.Get(ts.URL + "/reports?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var batch remote.ReportBatch
	if err := json.NewDecoder(rresp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Reports) != 1 {
		t.Fatalf("reports = %+v", batch)
	}
	rep := batch.Reports[0]
	sc, ok := trace.ParseTraceparent(rep.Traceparent)
	if !ok || sc.TraceID.String() != "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" {
		t.Fatalf("report traceparent = %q, want the caller's trace continued", rep.Traceparent)
	}
	if rep.EmittedUnixNano == 0 {
		t.Error("report missing emission timestamp")
	}
	spans, ok := tr.Store().Trace(sc.TraceID)
	if !ok || len(spans) != 1 || spans[0].Name != "source.apply" {
		t.Fatalf("source store = %v, want one source.apply span", spans)
	}
}

// TestApplyBodyTooLarge: a transaction body past -max-body is refused
// with 413, not a parse error.
func TestApplyBodyTooLarge(t *testing.T) {
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.NewSource("sales", spec.DB, true, "Sale")
	if err != nil {
		t.Fatal(err)
	}
	handler, _ := newSourceHandler(src, spec.DB, sourceHandlerConfig{MaxBody: 64})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	big := "insert Sale('" + strings.Repeat("x", 256) + "', 'Mary')"
	resp, err := http.Post(ts.URL+"/apply", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized apply = %d, want 413", resp.StatusCode)
	}
	// A small transaction still goes through.
	ok, err := http.Post(ts.URL+"/apply", "text/plain", strings.NewReader(`insert Sale('TV', 'Mary')`))
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("small apply = %d, want 200", ok.StatusCode)
	}
}

// TestApplyStatusMapping: an admission shed answers 429 + Retry-After
// (the transaction is retryable), oversized bodies 413, the rest 422.
func TestApplyStatusMapping(t *testing.T) {
	tests := []struct {
		err    error
		status int
		retry  bool
	}{
		{admission.ErrShed, http.StatusTooManyRequests, true},
		{&http.MaxBytesError{Limit: 64}, http.StatusRequestEntityTooLarge, false},
		{errors.New("foreign relation"), http.StatusUnprocessableEntity, false},
	}
	for _, tt := range tests {
		status, retry := applyStatus(tt.err)
		if status != tt.status || retry != tt.retry {
			t.Errorf("applyStatus(%v) = (%d, %v), want (%d, %v)", tt.err, status, retry, tt.status, tt.retry)
		}
	}
}

// TestRetainZeroRefused: -retain 0 would leave the report log without a
// cap, so dwsource refuses it with exit status 2 before reading the spec.
func TestRetainZeroRefused(t *testing.T) {
	if os.Getenv("DWSOURCE_RUN_MAIN") == "1" {
		os.Args = []string{"dwsource", "-spec", "absent.dw", "-name", "s", "-owns", "Sale", "-retain", "0"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRetainZeroRefused$")
	cmd.Env = append(os.Environ(), "DWSOURCE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-retain") {
		t.Fatalf("dwsource -retain 0: err %v, output %q; want exit status 2 naming -retain", err, out)
	}
}
