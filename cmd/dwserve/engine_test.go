package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	dwc "dwcomplement"
)

func newTestBackend(t *testing.T) *server {
	t.Helper()
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestQueryExplain(t *testing.T) {
	ts := newTestServer(t, "")
	var plain map[string]any
	if code := getJSON(t, ts.URL+"/query?q="+escape("Sale join Emp"), &plain); code != 200 {
		t.Fatalf("status %d", code)
	}
	if _, ok := plain["stats"]; ok {
		t.Error("stats present without explain=1")
	}
	var body struct {
		Stats struct {
			Scanned int64            `json:"scanned"`
			Emitted int64            `json:"emitted"`
			WallNs  int64            `json:"wallNs"`
			Ops     []map[string]any `json:"ops"`
		} `json:"stats"`
	}
	if code := getJSON(t, ts.URL+"/query?q="+escape("Sale join Emp")+"&explain=1", &body); code != 200 {
		t.Fatalf("explain status %d", code)
	}
	if body.Stats.Emitted == 0 || body.Stats.WallNs <= 0 || len(body.Stats.Ops) == 0 {
		t.Errorf("explain stats = %+v", body.Stats)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var before struct {
		Queries   int `json:"queries"`
		Refreshes int `json:"refreshes"`
	}
	getJSON(t, ts.URL+"/stats", &before)
	if before.Queries != 0 || before.Refreshes != 0 {
		t.Fatalf("fresh stats = %+v", before)
	}

	var q map[string]any
	getJSON(t, ts.URL+"/query?q="+escape("Sale join Emp"), &q)
	var res map[string]any
	if code := postText(t, ts.URL+"/update", "insert Sale('Radio', 'Paula')", &res); code != 200 {
		t.Fatalf("update: %v", res)
	}

	var after struct {
		Queries    int `json:"queries"`
		Refreshes  int `json:"refreshes"`
		QueryStats struct {
			Emitted int64 `json:"emitted"`
		} `json:"queryStats"`
		RefreshStats struct {
			Scanned int64 `json:"scanned"`
		} `json:"refreshStats"`
		RefreshWallNs int64 `json:"refreshWallNs"`
	}
	getJSON(t, ts.URL+"/stats", &after)
	if after.Queries != 1 || after.Refreshes != 1 {
		t.Errorf("counters = %+v", after)
	}
	if after.QueryStats.Emitted == 0 {
		t.Errorf("query stats not accumulated: %+v", after)
	}
	if after.RefreshWallNs <= 0 {
		t.Errorf("refresh wall not accumulated: %+v", after)
	}
}

// A request whose context is already gone must be answered with 499 and,
// for updates, must leave the warehouse unchanged.
func TestCanceledRequests(t *testing.T) {
	srv := newTestBackend(t)
	h := srv.handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	req := httptest.NewRequest("GET", "/query?q="+escape("Sale join Emp"), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("query status = %d, want %d (body %s)", rec.Code, statusClientClosedRequest, rec.Body)
	}

	before := srv.cur.Load()
	req = httptest.NewRequest("POST", "/update", strings.NewReader("insert Sale('Radio', 'Paula')")).WithContext(ctx)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("update status = %d, want %d (body %s)", rec.Code, statusClientClosedRequest, rec.Body)
	}
	if srv.cur.Load() != before {
		t.Error("canceled update published a version")
	}
	if srv.w.Size() != before.w.Size() {
		t.Error("canceled update mutated the warehouse")
	}
}
