package main

import (
	"math"
	"testing"
)

const sampleMetrics = `# HELP dw_queries_total Source queries answered.
# TYPE dw_queries_total counter
dw_queries_total 42
dw_http_requests_total{code="200",route="GET /query"} 40
dw_http_requests_total{route="POST /update",code="200"} 7
dw_odd{msg="a \"quoted\", comma",x="1"} 3 1700000000000
dw_refresh_lag_seconds_bucket{le="0.01"} 10 # {trace_id="abc"} 0.004
dw_refresh_lag_seconds_bucket{le="0.1"} 30
dw_refresh_lag_seconds_bucket{le="+Inf"} 40
dw_refresh_lag_seconds_sum 2.5
dw_refresh_lag_seconds_count 40
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(sampleMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.total("dw_queries_total"); got != 42 {
		t.Errorf("dw_queries_total = %v", got)
	}
	if got := p.total("dw_http_requests_total"); got != 47 {
		t.Errorf("dw_http_requests_total summed over labels = %v, want 47", got)
	}
	// Label order in the text does not matter.
	if got := p["dw_http_requests_total"][`code="200",route="POST /update"`]; got != 7 {
		t.Errorf("labels were not canonicalised: %v", p["dw_http_requests_total"])
	}
	if got := p["dw_odd"][`msg="a \"quoted\", comma",x="1"`]; got != 3 {
		t.Errorf("escaped label value or timestamp mishandled: %v", p["dw_odd"])
	}
	if got := p["dw_refresh_lag_seconds_bucket"][`le="0.01"`]; got != 10 {
		t.Errorf("exemplar suffix not cut: %v", p["dw_refresh_lag_seconds_bucket"])
	}
	if got := p.total("dw_absent"); got != 0 {
		t.Errorf("absent family = %v", got)
	}
	for _, bad := range []string{"dw_x{a=\"1\" 3", "dw_x notanumber", "dw_x{a=1} 3"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestHistQuantileBetweenScrapes(t *testing.T) {
	after, err := parseProm(sampleMetrics)
	if err != nil {
		t.Fatal(err)
	}
	before := promText{"dw_refresh_lag_seconds_bucket": {`le="0.01"`: 10, `le="0.1"`: 10, `le="+Inf"`: 10}}
	// Between the scrapes: 0 observations <= 0.01, 20 in (0.01, 0.1], 10 above.
	// The median (rank 15 of 30) lies three quarters into the second bucket.
	got := histQuantile(before, after, "dw_refresh_lag_seconds", 0.5)
	if want := 0.01 + 0.09*15/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("median = %v, want %v", got, want)
	}
	if got := histQuantile(after, after, "dw_refresh_lag_seconds", 0.5); got != 0 {
		t.Errorf("no observations between scrapes, got %v", got)
	}
	if got := histQuantile(before, after, "dw_refresh_lag_seconds", 0.99); got != 0.1 {
		t.Errorf("p99 beyond the last finite bucket = %v, want its bound 0.1", got)
	}
}
