package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
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
// and every text is answered correctly, held or evicted. At LevelStale a
// held text is served the bytes its entry holds; an evicted one is
// evaluated afresh.
func TestQueryCacheCap(t *testing.T) {
	clk := &ladderClock{}
	srv, ts := newOverloadServer(t, serverConfig{
		Admission: admission.Config{
			Capacity: 64,
			Ladder:   admission.LadderConfig{High: 0.9, Low: 0.5, Climb: 50 * time.Millisecond, Cool: time.Hour, Now: clk.now},
		},
	})
	n := queryCacheSize + 50
	path := func(i int) string { return "/query?q=" + escape(fmt.Sprintf("sigma{age = %d}(Emp)", i)) }
	bodies := make([][]byte, n)
	for i := range n {
		resp, body := get(t, ts.URL+path(i))
		var got struct {
			Result struct{ Count int } `json:"result"`
		}
		want := 0
		if i == 23 || i == 32 { // Mary and Paula
			want = 1
		}
		if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != 200 || got.Result.Count != want {
			t.Fatalf("age = %d: status %d, %d rows, want %d (%v)", i, resp.StatusCode, got.Result.Count, want, err)
		}
		bodies[i] = body
	}
	srv.qcache.mu.Lock()
	entries, order := len(srv.qcache.entries), len(srv.qcache.order)
	srv.qcache.mu.Unlock()
	if entries > queryCacheSize || order != entries {
		t.Errorf("cache holds %d entries (%d in its order) after %d texts, cap %d", entries, order, n, queryCacheSize)
	}
	if misses := srv.qcache.misses.Load(); misses != int64(n) {
		t.Errorf("%d misses for %d distinct texts", misses, n)
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
		cached bool
	}{{n - 1, true}, {0, false}} {
		resp, body := get(t, ts.URL+path(c.i)+"&stale=1")
		if cached := strings.HasPrefix(resp.Header.Get("X-DW-Staleness"), "cache="); resp.StatusCode != 200 ||
			cached != c.cached || !bytes.Equal(body, bodies[c.i]) {
			t.Errorf("stale request for text %d: status %d, from the cache %v (want %v), body %s, want %s",
				c.i, resp.StatusCode, cached, c.cached, body, bodies[c.i])
		}
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
// miss, then a hit — and once through a fresh one: the three statuses are
// equal, and so are the bodies of a 200.
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
