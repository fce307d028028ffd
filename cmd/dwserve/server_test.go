package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	dwc "dwcomplement"
)

const testSpec = `
relation Sale(item string, clerk string)
relation Emp(clerk string, age int) key(clerk)
ind Sale[clerk] <= Emp[clerk]
view Sold = pi{item, clerk, age}(Sale join Emp)
insert Emp('Mary', 23)
insert Emp('Paula', 32)
insert Sale('TV set', 'Mary')
`

// newTestServer serves testSpec; dir is its -snapshot-dir ("" runs it
// volatile).
func newTestServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	_, ts := newDurableServer(t, dir, 0)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func postText(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestHealthAndSchema(t *testing.T) {
	ts := newTestServer(t, "")
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
	var schema map[string]any
	getJSON(t, ts.URL+"/schema", &schema)
	if !strings.Contains(schema["database"].(string), "relation Sale") {
		t.Errorf("schema = %v", schema)
	}
}

// TestComplementEndpoint: /complement lists each entry with what it
// costs — its rows and the bytes of its checkpoint sections, 0 for the one
// proved empty — and the sections of the whole warehouse.
func TestComplementEndpoint(t *testing.T) {
	srv, ts := newDurableServer(t, "", 0)
	var body struct {
		Entries        []map[string]any `json:"entries"`
		WarehouseBytes int64            `json:"warehouseBytes"`
	}
	getJSON(t, ts.URL+"/complement", &body)
	if len(body.Entries) != 2 {
		t.Fatalf("entries = %v", body.Entries)
	}
	state, total := srv.cur.Load().w.State(), int64(0)
	for _, r := range state {
		total += r.SectionBytes()
	}
	if body.WarehouseBytes != total || total == 0 {
		t.Errorf("warehouseBytes = %d, the state's sections hold %d", body.WarehouseBytes, total)
	}
	for _, e := range body.Entries {
		// With the IND, C_Sale is proved empty.
		if e["base"] == "Sale" && (e["alwaysEmpty"] != true || e["rows"] != 0.0 || e["bytes"] != 0.0) {
			t.Errorf("C_Sale not proved empty, or said to cost something: %v", e)
		}
		// C_Emp holds Paula, who sold nothing.
		if r := state["C_Emp"]; e["base"] == "Emp" && (e["rows"] != 1.0 || e["bytes"] != float64(r.SectionBytes()) || r.SectionBytes() == 0) {
			t.Errorf("C_Emp: %v; want 1 row in %d bytes", e, r.SectionBytes())
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var body struct {
		Translated string `json:"translated"`
		Result     struct {
			Count  int     `json:"count"`
			Tuples [][]any `json:"tuples"`
		} `json:"result"`
	}
	code := getJSON(t, ts.URL+"/query?q="+escape("pi{clerk}(Emp) minus pi{clerk}(Sale)"), &body)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if body.Result.Count != 1 || body.Result.Tuples[0][0] != "Paula" {
		t.Errorf("result = %+v", body.Result)
	}
	if !strings.Contains(body.Translated, "Sold") {
		t.Errorf("translated = %q", body.Translated)
	}
	// Errors.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/query", &e); code != 400 {
		t.Errorf("missing q: %d", code)
	}
	if code := getJSON(t, ts.URL+"/query?q="+escape("pi{zz}(Nope)"), &e); code != 400 {
		t.Errorf("bad query: %d", code)
	}
}

func TestUpdateEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var res map[string]any
	code := postText(t, ts.URL+"/update", "insert Sale('Computer', 'Paula')", &res)
	if code != 200 {
		t.Fatalf("update status %d: %v", code, res)
	}
	if res["sourceChanges"].(float64) != 1 {
		t.Errorf("res = %v", res)
	}
	// The new join tuple is visible immediately.
	var q struct {
		Result struct {
			Count int `json:"count"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/query?q="+escape("sigma{clerk = 'Paula'}(Sale join Emp)"), &q)
	if q.Result.Count != 1 {
		t.Errorf("Paula's sale not visible: %+v", q)
	}
	// Malformed ops.
	var e map[string]string
	if code := postText(t, ts.URL+"/update", "garbage", &e); code != 400 {
		t.Errorf("garbage update: %d", code)
	}
}

func TestRelationEndpoints(t *testing.T) {
	ts := newTestServer(t, "")
	var sizes map[string]int
	getJSON(t, ts.URL+"/relations", &sizes)
	if sizes["Sold"] != 1 || sizes["C_Emp"] != 1 {
		t.Errorf("sizes = %v", sizes)
	}
	var rel struct {
		Attributes []string `json:"attributes"`
		Count      int      `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/relations/Sold", &rel); code != 200 || rel.Count != 1 {
		t.Errorf("Sold = %+v (%d)", rel, code)
	}
	var e map[string]string
	if code := getJSON(t, ts.URL+"/relations/Nope", &e); code != 404 {
		t.Errorf("unknown relation: %d", code)
	}
}

func TestReconstructEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var rel struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/reconstruct/Emp", &rel); code != 200 || rel.Count != 2 {
		t.Errorf("Emp = %+v (%d)", rel, code)
	}
	var e map[string]string
	if code := getJSON(t, ts.URL+"/reconstruct/Nope", &e); code != 404 {
		t.Errorf("unknown base: %d", code)
	}
}

// TestAnswersCarryTheirVersion: every read route stamps its answer with
// the epoch/lsn of the version it was computed from, and ?explain=1 adds
// that version's per-source sequence marks to the stats.
func TestAnswersCarryTheirVersion(t *testing.T) {
	ts := newTestServer(t, "")
	routes := []string{
		"/query?q=" + escape("Sale"),
		"/reconstruct/Emp",
		"/relations",
		"/relations/Sold",
	}
	stamps := func(want string) {
		t.Helper()
		for _, route := range routes {
			resp, err := http.Get(ts.URL + route)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := resp.Header.Get("X-DW-Version"); got != want {
				t.Errorf("GET %s: X-DW-Version = %q, want %q", route, got, want)
			}
		}
	}
	stamps("0/0")
	var res map[string]any
	if code := postText(t, ts.URL+"/update", "insert Sale('Radio', 'Paula')", &res); code != 200 {
		t.Fatalf("update failed: %v", res)
	}
	stamps("0/1")

	var explained struct {
		Stats struct {
			Seq     map[string]uint64 `json:"seq"`
			Emitted int64             `json:"emitted"`
		} `json:"stats"`
	}
	getJSON(t, ts.URL+"/query?q="+escape("Sale")+"&explain=1", &explained)
	if explained.Stats.Seq[httpSource] != 1 || explained.Stats.Emitted == 0 {
		t.Errorf("explain=1 stats = %+v, want seq[%s] = 1 beside the counters", explained.Stats, httpSource)
	}
}

// TestBootsFromMarklessSnapshot: a snapshot written without marks — what
// `dwctl -save <dir>/state.snap snapshot` produces — boots under
// -snapshot-dir at sequence zero.
func TestBootsFromMarklessSnapshot(t *testing.T) {
	spec := mustSpec(t, testSpec)
	w, err := dwc.BuildWarehouse(spec.DB, spec.Views, dwc.Theorem22(), spec.State)
	if err != nil {
		t.Fatal(err)
	}
	u := mustOps(t, spec.DB, "insert Sale('Radio', 'Paula')")
	if _, err := dwc.Refresh(context.Background(), dwc.NewMaintainer(w.Complement()), w, u); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dwc.SaveSnapshot(checkpointPath(dir), w.State()); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, dir)
	var q struct {
		Result struct {
			Count int `json:"count"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/query?q="+escape("sigma{item = 'Radio'}(Sale)"), &q)
	if q.Result.Count != 1 {
		t.Errorf("snapshot state not served: %+v", q)
	}
	var res map[string]any
	if code := postText(t, ts.URL+"/update", "insert Sale('Computer', 'Paula')", &res); code != 200 {
		t.Fatalf("update on a markless snapshot: %v", res)
	}
}

func TestPersistenceAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, dir)
	var res map[string]any
	if code := postText(t, ts.URL+"/update", "insert Sale('Radio', 'Paula')", &res); code != 200 {
		t.Fatalf("update failed: %v", res)
	}
	ts.Close()

	// Restart on the same directory: Paula's radio sale must be there.
	ts2 := newTestServer(t, dir)
	var q struct {
		Result struct {
			Count int `json:"count"`
		} `json:"result"`
	}
	getJSON(t, ts2.URL+"/query?q="+escape("sigma{item = 'Radio'}(Sale)"), &q)
	if q.Result.Count != 1 {
		t.Errorf("state lost across restart: %+v", q)
	}
}

func escape(q string) string {
	r := strings.NewReplacer(
		" ", "%20", "{", "%7B", "}", "%7D", "'", "%27", "=", "%3D", "+", "%2B")
	return r.Replace(q)
}
