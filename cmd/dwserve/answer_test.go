package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
	"dwcomplement/internal/relation"
)

// refValue and refRelation are the shapes the server handed encoding/json
// before it wrote result rows itself, kept as the reference the writer's
// bytes are compared against: every value boxed, the relation a map.
func refValue(v relation.Value) any {
	switch v.Kind() {
	case relation.KindBool:
		return v.AsBool()
	case relation.KindInt:
		return v.AsInt()
	case relation.KindFloat:
		return v.AsFloat()
	case relation.KindString:
		return v.AsString()
	default:
		return nil
	}
}

func refRelation(r *relation.Relation) map[string]any {
	sorted := slices.Collect(r.All())
	sort.Slice(sorted, func(i, j int) bool { return tupleLess(sorted[i], sorted[j]) })
	rows := make([][]any, len(sorted))
	for i, t := range sorted {
		row := make([]any, len(t))
		for c, v := range t {
			row[c] = refValue(v)
		}
		rows[i] = row
	}
	return map[string]any{"attributes": r.Attrs(), "tuples": rows, "count": len(sorted)}
}

// tupleLess is the wire's row order, independent of the server's: column by
// column under Value.Less, asked both ways.
func tupleLess(a, b relation.Tuple) bool {
	for i := range a {
		if a[i].Less(b[i]) {
			return true
		}
		if b[i].Less(a[i]) {
			return false
		}
	}
	return false
}

// refEncode is what writeJSON put on the wire for body.
func refEncode(t *testing.T, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nastyStrings and nastyFloats are the values on which a hand-written JSON
// writer and encoding/json are most likely to part ways.
var (
	nastyStrings = []string{
		"", "plain", `<>&"\`, "a\x00b\x01\x1f\x7f", "\b\f\n\r\t", "caf\u00e9 \u65e5\u672c \U0001F600",
		"bad\xff\xfeutf8", "\xe2\x80", "\u2028line\u2029para", "</script>", "'single'", "\xc0\xaf", "\xed\xa0\x80",
	}
	nastyFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 9.999999999999999e20,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 1e-9, 1.5e-10, 1e100, 123456789.125, 0.1, 1 << 53,
	}
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestAppendRelationMatchesEncodingJSON(t *testing.T) {
	check := func(name string, r *relation.Relation) {
		t.Helper()
		got, err := appendRelation(nil, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := bytes.TrimSuffix(refEncode(t, refRelation(r)), []byte("\n")); !bytes.Equal(got, want) {
			t.Fatalf("%s:\ngot  %s\nwant %s", name, got, want)
		}
	}
	check("empty", relation.New("a", "b"))
	check("no attributes, no rows", relation.New())
	dee := relation.New()
	dee.Insert(relation.Tuple{})
	check("no attributes, the empty tuple", dee)

	nasty := relation.New("s<", "f", "v")
	for i, s := range nastyStrings {
		nasty.Insert(relation.Tuple{relation.String_(s), relation.Float(nastyFloats[i%len(nastyFloats)]), relation.Null()})
	}
	for i, f := range nastyFloats {
		nasty.Insert(relation.Tuple{relation.Int(int64(i)), relation.Float(f), relation.Bool(i%2 == 0)})
	}
	nasty.Insert(relation.Tuple{relation.Int(math.MinInt64), relation.Int(math.MaxInt64), relation.String_("")})
	check("nasty", nasty)

	// Pages of one relation differ in layout: ints, strings from a
	// dictionary of each page's own, a mixed-kind page, NULL-bearing and
	// NULL-only columns — and deletes leave dead strings behind.
	paged := relation.New("id", "s", "m")
	for i := range 3*relation.BatchSize + 77 {
		page := i / relation.BatchSize
		s, m := relation.String_(nastyStrings[(i+page)%len(nastyStrings)]+strconv.Itoa(i%5)), relation.Int(int64(i%7))
		switch page {
		case 1:
			m = []relation.Value{relation.Float(nastyFloats[i%len(nastyFloats)]), relation.String_("x"), relation.Bool(true), relation.Null()}[i%4]
		case 2:
			s, m = relation.Null(), relation.Float(float64(i%9)/4)
		}
		if i%13 == 0 {
			m = relation.Null()
		}
		paged.Insert(relation.Tuple{relation.Int(int64(i % 600)), s, m})
	}
	for i, tu := range paged.SortedTuples() {
		if i%5 == 0 {
			paged.Delete(tu)
		}
	}
	check("pages of different layouts", paged)

	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		attrs := []string{"a", "b\u2028", "c&", "d"}[:1+rng.Intn(4)]
		r := relation.New(attrs...)
		for n := rng.Intn(40); n > 0; n-- {
			row := make(relation.Tuple, len(attrs))
			for c := range row {
				switch rng.Intn(6) {
				case 0:
					row[c] = relation.Null()
				case 1:
					row[c] = relation.Bool(rng.Intn(2) == 0)
				case 2:
					row[c] = relation.Int(rng.Int63() >> uint(rng.Intn(64)) * int64(1-2*rng.Intn(2)))
				case 3:
					f := math.Float64frombits(rng.Uint64())
					if math.IsNaN(f) || math.IsInf(f, 0) {
						f = nastyFloats[rng.Intn(len(nastyFloats))]
					}
					row[c] = relation.Float(f)
				case 4:
					row[c] = relation.String_(nastyStrings[rng.Intn(len(nastyStrings))])
				default:
					b := make([]byte, rng.Intn(12))
					rng.Read(b)
					row[c] = relation.String_(string(b))
				}
			}
			r.Insert(row)
		}
		check("random relation "+strconv.Itoa(round), r)
	}
}

const nastySpec = `
relation T(id int, s string, f float, b bool, a any) key(id)
relation E(x int, y string)
view VT = T
view VS = pi{id, s}(T)
view VE = E
`

// nastyServer serves nastySpec with one row per nasty string and float.
func nastyServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	spec := mustSpec(t, nastySpec)
	anys := []relation.Value{dwc.Null(), dwc.Int(7), dwc.Float(1e-7), dwc.Str("<a>"), dwc.Bool(true)}
	for i := 0; i < max(len(nastyStrings), len(nastyFloats)); i++ {
		spec.State.MustInsert("T", dwc.Int(int64(i)), dwc.Str(nastyStrings[i%len(nastyStrings)]),
			dwc.Float(nastyFloats[i%len(nastyFloats)]), dwc.Bool(i%2 == 0), anys[i%len(anys)])
	}
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestRouteBytesMatchEncodingJSON: the three routes that carry result rows
// answer with exactly the bytes the reflection encoder wrote for the old
// map shape, explain levels included, and say how long they are.
func TestRouteBytesMatchEncodingJSON(t *testing.T) {
	srv, ts := nastyServer(t)
	v := srv.cur.Load()
	same := func(what string, resp *http.Response, got, want []byte) {
		t.Helper()
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q", what, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\ngot  %s\nwant %s", what, got, want)
		}
		if resp.ContentLength != int64(len(want)) {
			t.Errorf("%s: Content-Length %d for %d bytes", what, resp.ContentLength, len(want))
		}
	}
	for _, name := range v.w.Names() {
		r, _ := v.w.Relation(name)
		resp, got := get(t, ts.URL+"/relations/"+name)
		same("/relations/"+name, resp, got, refEncode(t, refRelation(r)))
	}
	bases, err := v.w.ReconstructBases()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range bases {
		if name == "T" && r.Len() != max(len(nastyStrings), len(nastyFloats)) {
			t.Fatalf("fixture: T reconstructs to %d rows", r.Len())
		}
		resp, got := get(t, ts.URL+"/reconstruct/"+name)
		same("/reconstruct/"+name, resp, got, refEncode(t, refRelation(r)))
	}
	for _, src := range []string{"T", "E", "pi{s, f}(T)", "sigma{id > 3}(T)", "pi{a}(T) union pi{a}(T)", `sigma{s = '<>&"\\'}(T)`} {
		q := dwc.MustParseExpr(src)
		qHat, err := v.w.TranslateQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := dwc.EvalExpr(context.Background(), qHat, v.w)
		if err != nil {
			t.Fatal(err)
		}
		ref := func() map[string]any {
			return map[string]any{"query": q.String(), "translated": qHat.String(), "result": refRelation(rows.Relation())}
		}
		resp, got := get(t, ts.URL+"/query?q="+url.QueryEscape(src))
		same("/query "+src, resp, got, refEncode(t, ref()))
		// Under explain the diagnostics differ from run to run (wall
		// times): the reference takes them from the response, verbatim, and
		// everything else from the old shape.
		for explain, keys := range map[string][]string{"1": {"stats"}, "2": {"stats", "plan", "planText"}} {
			resp, got := get(t, ts.URL+"/query?q="+url.QueryEscape(src)+"&explain="+explain)
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(got, &fields); err != nil {
				t.Fatalf("explain=%s %s: %v in %s", explain, src, err, got)
			}
			want := ref()
			for _, k := range keys {
				if fields[k] == nil {
					t.Fatalf("explain=%s %s: no %q in %s", explain, src, k, got)
				}
				want[k] = fields[k]
			}
			if len(fields) != len(want) {
				t.Fatalf("explain=%s %s: %d fields, want %d", explain, src, len(fields), len(want))
			}
			same("/query explain="+explain+" "+src, resp, got, refEncode(t, want))
		}
	}
}

// TestUnencodableResultIsAnError: a NaN or ±Inf in a result — loadable
// from CSV, and a legal float everywhere else — is a 500 with the JSON
// error body on all three row-carrying routes, never a 200 with an empty
// or truncated body and never null; and it is counted like any request.
func TestUnencodableResultIsAnError(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := mustSpec(t, "relation N(id int, f float) key(id)\nview VN = N\n")
		spec.State.MustInsert("N", dwc.Int(1), dwc.Float(2.5)).MustInsert("N", dwc.Int(2), dwc.Float(bad))
		srv, err := newServer(spec, dwc.Theorem22(), serverConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.handler())
		for _, path := range []string{"/query?q=N", "/query?q=N&explain=1", "/relations/VN", "/reconstruct/N"} {
			resp, body := get(t, ts.URL+path)
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusInternalServerError ||
				!strings.Contains(e["error"], "not encodable as JSON") || !strings.Contains(e["error"], `"f"`) {
				t.Errorf("%v at %s: status %d, body %q (%v)", bad, path, resp.StatusCode, body, err)
			}
		}
		// The rows JSON can carry are still served.
		if resp, body := get(t, ts.URL+"/query?q="+url.QueryEscape("sigma{id = 1}(N)")); resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"count":1,"tuples":[[2.5,1]]`)) {
			t.Errorf("%v: the encodable row: status %d, body %s", bad, resp.StatusCode, body)
		}
		_, metrics := getText(t, ts.URL+"/metrics")
		for _, route := range []string{"GET /query", "GET /relations/{name}", "GET /reconstruct/{base}"} {
			if !strings.Contains(metrics, `dw_http_requests_total{code="500",route="`+route+`"}`) {
				t.Errorf("%v: no 500 counted for %s", bad, route)
			}
		}
		if e, _ := srv.qcache.get("N"); e.body != nil {
			t.Errorf("%v: the failed answer entered the stale cache", bad)
		}
		ts.Close()
	}
}

// TestStaleCacheServesTheStoredBytes: at LevelStale a stale-tolerant query
// gets the very bytes of the fresh answer that filled the cache, stamped
// with the version that answer was computed at; explain answers never
// enter the cache.
func TestStaleCacheServesTheStoredBytes(t *testing.T) {
	clk := &ladderClock{}
	srv, ts := newOverloadServer(t, serverConfig{
		Admission: admission.Config{
			Capacity: 64,
			Ladder:   admission.LadderConfig{High: 0.9, Low: 0.5, Climb: 50 * time.Millisecond, Cool: time.Hour, Now: clk.now},
		},
	})
	q := "/query?q=" + escape("Sale join Emp")
	if resp, _ := get(t, ts.URL+q+"&explain=1"); resp.StatusCode != 200 {
		t.Fatalf("explain query = %d", resp.StatusCode)
	}
	if e, _ := srv.qcache.get("Sale join Emp"); e.body != nil {
		t.Fatal("an explain answer entered the stale cache")
	}
	freshResp, fresh := get(t, ts.URL+q)
	if freshResp.StatusCode != 200 || freshResp.Header.Get("X-DW-Version") != "0/0" {
		t.Fatalf("fresh query = %d at %q", freshResp.StatusCode, freshResp.Header.Get("X-DW-Version"))
	}
	postUpdate(t, ts.URL, "insert Sale('Radio', 'Paula')")
	for _, stalled := range []bool{false, false} {
		srv.adm.Ladder().Observe(1.5, stalled)
		clk.advance(60 * time.Millisecond)
		srv.adm.Ladder().Observe(1.5, stalled)
	}
	if got := srv.adm.Level(); got != admission.LevelStale {
		t.Fatalf("level = %v, want stale", got)
	}
	staleResp, stale := get(t, ts.URL+q+"&stale=1")
	if staleResp.StatusCode != 200 || !bytes.Equal(stale, fresh) {
		t.Fatalf("stale answer (status %d) differs from the fresh one it was stored from:\ngot  %s\nwant %s", staleResp.StatusCode, stale, fresh)
	}
	if got := staleResp.Header.Get("X-DW-Version"); got != "0/0" {
		t.Errorf("cached answer stamped %q, want 0/0 though the warehouse is at 0/1", got)
	}
	if hdr := staleResp.Header.Get("X-DW-Staleness"); !strings.HasPrefix(hdr, "cache=") {
		t.Errorf("X-DW-Staleness = %q, want cache=<age>", hdr)
	}
	if ct := staleResp.Header.Get("Content-Type"); ct != "application/json" || staleResp.ContentLength != int64(len(fresh)) {
		t.Errorf("cached answer: Content-Type %q, Content-Length %d of %d", ct, staleResp.ContentLength, len(fresh))
	}
	// A stale-tolerant explain request is served the cached plain answer.
	if _, got := get(t, ts.URL+q+"&stale=1&explain=2"); !bytes.Equal(got, fresh) {
		t.Errorf("stale explain request got %s", got)
	}
}

// FuzzAppendJSONString is the differential check of the string writer
// against encoding/json, whose Marshal escapes HTML like the Encoder the
// server used.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Fatalf("appendJSONString onto a prefix of %q = %s", s, got)
		}
	})
}

// BenchmarkAnswerPath measures a whole /query request in process through
// s.handler(), for the four answer sizes of the process benchmark's pool on
// the 100k-row Section-5 star schema BenchmarkQueryClasses evaluates. hit
// repeats the request at one state, so it is served the stored answer.
// miss drops the stored answer before every request, so every request
// evaluates, orders and encodes: what is left of it once
// BenchmarkQueryClasses' share (the engine) is subtracted is the answer
// path. after/k is a read whose stored answer is k churn commits
// (starChurn) old, carried by the text's plan, which every one of those
// commits tested: composed/op counts the logged tuples it composed. pass
// is one churn commit's relevance pass with the carry plans of a 170-text
// pool of the process benchmark's shapes registered (poolTexts):
// tested/op, logged/op and key-set-hits/op are its counts.
func BenchmarkAnswerPath(b *testing.B) {
	srv := newStar(b, 100_000)
	h := srv.handler()
	churn := starChurn{h: h, rows: 100_000}
	shapes := []struct {
		name, q string
		rows    int // at least
	}{
		{"point", "sigma{okey = 4711}(Order_paris)", 1},
		{"join", "sigma{ckey = 17}(Order_paris join Customer)", 5},
		{"scan/paris", "sigma{qty > 49}(Order_paris)", 500},
		{"scan/tokyo", "sigma{qty > 49}(Order_tokyo)", 500},
		{"union", "sigma{brand = 'brand-007'}((Order_paris union Order_tokyo) join Part)", 100},
	}
	request := func(q string) *http.Request { return httptest.NewRequest("GET", "/query?q="+url.QueryEscape(q), nil) }
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("%s: status %d: %s", req.URL, rec.Code, rec.Body)
		}
		return rec
	}
	for _, c := range shapes {
		req := request(c.q)
		for _, mode := range []string{"hit", "miss"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				reused := srv.mReused.Value()
				for i := 0; i < b.N+1; i++ { // iteration 0 warms the index caches and stores the answer
					if i == 1 {
						b.ResetTimer()
					}
					if mode == "miss" {
						srv.qcache.forget(c.q)
					}
					rec := serve(req)
					if i == 0 {
						var body struct {
							Result struct{ Count int } `json:"result"`
						}
						if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Result.Count < c.rows {
							b.Fatalf("%s: %d rows, want at least %d (%v)", c.q, body.Result.Count, c.rows, err)
						}
					}
				}
				b.StopTimer()
				switch reused = srv.mReused.Value() - reused; {
				case mode == "hit" && reused < int64(b.N):
					b.Fatalf("%s: %d answers reused in %d requests at one state", c.q, reused, b.N+1)
				case mode == "miss" && reused != 0:
					b.Fatalf("%s: %d answers reused with none stored", c.q, reused)
				}
			})
		}
	}
	var texts []string
	for _, c := range shapes {
		texts = append(texts, c.q)
	}
	register(b, srv, &churn, texts)
	for _, k := range []int{4, 40, 120} {
		for _, c := range shapes {
			serve(request(c.q)) // stored (evaluated or carried) at the published state
		}
		for range k {
			churn.commit(b)
		}
		for _, c := range shapes {
			e, _ := srv.qcache.get(c.q)
			req := request(c.q)
			b.Run(fmt.Sprintf("%s/after/%d", c.name, k), func(b *testing.B) {
				b.ReportAllocs()
				carriedBefore := srv.carried.Load()
				for range b.N {
					srv.qcache.restore(c.q, e)
					serve(req)
				}
				b.StopTimer()
				if n := srv.carried.Load() - carriedBefore; n != int64(b.N) {
					b.Fatalf("%s: %d of %d reads carried across %d commits", c.q, n, b.N, k)
				}
				b.ReportMetric(float64(srv.carries(context.Background(), e, srv.cur.Load()).composed), "composed/op")
			})
		}
	}
	register(b, srv, &churn, poolTexts(100_000))
	ops, _ := churn.next()
	u, err := dwc.ParseUpdateOps(srv.db, ops)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pass", func(b *testing.B) {
		b.ReportAllocs()
		before := srv.plans.snapshot()
		for range b.N {
			srv.plans.pass(srv.plans.gen+1, u)
		}
		b.StopTimer()
		after, n := srv.plans.snapshot(), float64(b.N)
		b.ReportMetric(float64(after.Registered), "plans")
		b.ReportMetric(float64(after.Tested-before.Tested)/n, "tested/op")
		b.ReportMetric(float64(after.Logged-before.Logged)/n, "logged/op")
		b.ReportMetric(float64(after.KeySetHits-before.KeySetHits)/n, "key-set-hits/op")
	})
}

// forget drops the answer stored for src, keeping its plan.
func (c *queryCache) forget(src string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[src]
	c.bytes -= len(e.body)
	e.body = nil
	c.entries[src] = e
}

// restore puts back e, an entry held for src earlier, in place.
func (c *queryCache) restore(src string, e queryEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += len(e.body) - len(c.entries[src].body)
	c.entries[src] = e
}

// TestFailedEncodeIsLogged: a fixed-shape body that encoding/json refuses
// is no longer dropped silently — the request's log carries a warn line
// with its id.
func TestFailedEncodeIsLogged(t *testing.T) {
	srv, err := newServer(mustSpec(t, testSpec), dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	srv.log = slog.New(slog.NewTextHandler(&logged, nil))
	h := srv.instrument("GET /nan", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"x": math.NaN()})
	})
	h(httptest.NewRecorder(), httptest.NewRequest("GET", "/nan", nil))
	warn := regexp.MustCompile(`level=WARN msg="response body failed" id=[0-9a-f]{16} route="GET /nan" status=200 err="json: unsupported value: NaN"`)
	if !warn.Match(logged.Bytes()) {
		t.Errorf("no warn line for the failed encode in:\n%s", logged.String())
	}
}

// TestAppendAckMatchesEncodingJSON: an update's ack is the bytes
// encoding/json wrote for the map the handler once handed it, over random
// refresh stats — relation names that need escaping, relations that did
// not change, sizes up to the int64 range.
func TestAppendAckMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := append([]string{"FactParis", "C_Order_tokyo", "Sold", ""}, nastyStrings...)
	for i := range 500 {
		stats := dwc.RefreshStats{Changed: map[string]int{}, UpdateSize: rng.Intn(1 << uint(rng.Intn(62))), Wall: time.Duration(rng.Int63n(1 << uint(rng.Intn(63))))}
		for range rng.Intn(6) {
			stats.Changed[names[rng.Intn(len(names))]] = rng.Intn(3) * rng.Intn(1<<20)
		}
		changed := map[string]int{}
		for name, n := range stats.Changed {
			if n > 0 {
				changed[name] = n
			}
		}
		want := refEncode(t, map[string]any{
			"sourceChanges":    stats.UpdateSize,
			"warehouseChanges": stats.Total(),
			"changedRelations": changed,
			"refreshNs":        stats.Wall.Nanoseconds(),
		})
		if got := appendAck(nil, stats); !bytes.Equal(got, want) {
			t.Fatalf("stats %d:\ngot  %q\nwant %q", i, got, want)
		}
	}
}

// TestQueryCacheRestamp: a carried answer re-stamps its entry in place —
// its place in the eviction order and the cache's byte count stay — and
// never over an entry held at a later generation.
func TestQueryCacheRestamp(t *testing.T) {
	c := newQueryCache(&carryRegistry{})
	for i, src := range []string{"a", "b", "c"} {
		c.put(src, queryEntry{body: []byte(strings.Repeat("x", 10*(i+1))), gen: 3, version: "0/3"})
	}
	order, held := slices.Clone(c.order), c.bytes
	e, _ := c.get("a")
	e.gen, e.version = 7, "0/7"
	c.restamp("a", e)
	if got, _ := c.get("a"); got.gen != 7 || got.version != "0/7" {
		t.Fatalf("re-stamped entry at gen %d, version %q; want 7, 0/7", got.gen, got.version)
	}
	if !slices.Equal(c.order, order) || c.bytes != held {
		t.Fatalf("re-stamp moved the entry: order %v bytes %d, want %v and %d", c.order, c.bytes, order, held)
	}
	e.gen, e.version = 5, "0/5" // a carry that read the entry at gen 3 and finishes after the one to gen 7
	c.restamp("a", e)
	if got, _ := c.get("a"); got.gen != 7 {
		t.Fatalf("a re-stamp to gen 5 replaced the entry at gen 7: gen %d", got.gen)
	}
	c.restamp("gone", queryEntry{body: []byte("y"), gen: 9})
	if _, ok := c.get("gone"); ok || len(c.order) != 3 {
		t.Fatalf("a re-stamp stored an entry the cache does not hold: order %v", c.order)
	}
	// FIFO order survives: the oldest text, a, is still the first evicted.
	for i := range queryCacheSize - 2 {
		c.put(fmt.Sprintf("q%d", i), queryEntry{body: []byte("z"), gen: 3})
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("the re-stamped entry outlived the entries stored after it")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("the second-oldest entry was evicted before the re-stamped oldest")
	}
}

// TestQueryCachePutKeepsNewer: an answer evaluated by a reader that loaded
// an older version does not replace the one stored from a later state, and
// the reader counts as behind, not as a carry fallback. A newer answer
// replaces an older one, and a plan-only entry replaces nothing.
func TestQueryCachePutKeepsNewer(t *testing.T) {
	c := newQueryCache(&carryRegistry{})
	c.put("q", queryEntry{body: []byte("at 7"), gen: 7})
	if _, ok := c.put("q", queryEntry{body: []byte("at 5"), gen: 5}); ok {
		t.Fatal("an answer at gen 5 replaced the one at gen 7")
	}
	if _, ok := c.put("q", queryEntry{gen: 9}); ok {
		t.Fatal("an entry without an answer replaced a stored one")
	}
	if got, _ := c.get("q"); got.gen != 7 || string(got.body) != "at 7" || c.bytes != 4 {
		t.Fatalf("entry %q at gen %d, %d bytes held; want the answer at gen 7", got.body, got.gen, c.bytes)
	}
	if _, ok := c.put("q", queryEntry{body: []byte("at 8!"), gen: 8}); !ok {
		t.Fatal("an answer at gen 8 did not replace the one at gen 7")
	}
	if got, _ := c.get("q"); got.gen != 8 || c.bytes != 5 || len(c.order) != 1 {
		t.Fatalf("entry at gen %d, %d bytes, order %v; want gen 8, 5 bytes, one entry", got.gen, c.bytes, c.order)
	}

	srv, err := newServer(mustSpec(t, testSpec), dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.handler()
	const q = "Sale join Emp"
	old := srv.cur.Load()
	postUpdateTo(t, h, "insert Emp('Zoe', 40)")
	ask(t, h, q)       // stored at gen 1
	srv.cur.Store(old) // a reader still on gen 0
	rec := ask(t, h, q)
	if rec.Header().Get("X-DW-Version") != old.stamp() {
		t.Fatalf("answered at %s, want %s", rec.Header().Get("X-DW-Version"), old.stamp())
	}
	if e, _ := srv.qcache.get(q); e.gen != 1 {
		t.Fatalf("the behind reader's answer replaced the stored one: entry at gen %d", e.gen)
	}
	var stats struct {
		QueriesBehind  int64
		CarryFallbacks map[string]int64
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.QueriesBehind != 1 || stats.CarryFallbacks["untracked"]+stats.CarryFallbacks["cost"]+stats.CarryFallbacks["changed"] != 0 {
		t.Fatalf("/stats: %d behind, fallbacks %v; want 1 and none", stats.QueriesBehind, stats.CarryFallbacks)
	}
}
