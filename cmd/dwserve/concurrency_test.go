package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/chaos"
)

// TestConcurrentQueriesAndUpdates hammers the server with interleaved
// readers and writers; every response must be internally consistent and
// the final state must reflect exactly the accepted updates.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	ts := newTestServer(t, "")
	var wg sync.WaitGroup

	// Writers: 4 goroutines × 20 distinct inserts each.
	for wr := 0; wr < 4; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				op := fmt.Sprintf("insert Sale('item-%d-%d', 'Mary')", wr, i)
				resp, err := http.Post(ts.URL+"/update", "text/plain", strings.NewReader(op))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("update status %d", resp.StatusCode)
					return
				}
			}
		}(wr)
	}
	// Readers: 4 goroutines × 30 queries each.
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				resp, err := http.Get(ts.URL + "/query?q=" + escape("pi{clerk}(Sale join Emp)"))
				if err != nil {
					t.Error(err)
					return
				}
				var body struct {
					Result struct {
						Count int `json:"count"`
					} `json:"result"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	// 80 distinct inserts + the initial TV set sale, all by Mary.
	var q struct {
		Result struct {
			Count int `json:"count"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/query?q="+escape("Sale"), &q)
	if q.Result.Count != 81 {
		t.Errorf("|Sale| = %d, want 81", q.Result.Count)
	}
	// And the warehouse is still exactly reconstructable.
	var emp struct {
		Count int `json:"count"`
	}
	getJSON(t, ts.URL+"/reconstruct/Emp", &emp)
	if emp.Count != 2 {
		t.Errorf("|Emp| = %d, want 2", emp.Count)
	}
}

// stampedAnswer is a /query response reduced to what the version tests
// compare: the X-DW-Version it was stamped with and its result, verbatim.
type stampedAnswer struct {
	status  int
	version string
	result  json.RawMessage
}

// queryStamped answers q over HTTP within a second; safe off the test
// goroutine.
func queryStamped(baseURL, q string) (stampedAnswer, error) {
	client := http.Client{Timeout: time.Second}
	resp, err := client.Get(baseURL + "/query?q=" + escape(q))
	if err != nil {
		return stampedAnswer{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return stampedAnswer{}, err
	}
	return stampedAnswer{resp.StatusCode, resp.Header.Get("X-DW-Version"), body.Result}, nil
}

// TestConcurrentReadsDuringHeldCommit parks an update between its journal
// write and the fsync: it has refreshed the writer's warehouse but
// published nothing. A query issued meanwhile must not wait for it, and
// must answer from the previous version — state and stamp; once the
// update is acknowledged the same query shows the next one.
func TestConcurrentReadsDuringHeldCommit(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	_, ts := newDurableServer(t, t.TempDir(), 64)
	before, err := queryStamped(ts.URL, "Sale")
	if err != nil || before.status != http.StatusOK {
		t.Fatalf("query before the update: %+v, %v", before, err)
	}

	reached, release := chaos.Hold("journal.sync")
	defer release()
	acked := make(chan int, 1)
	go func() {
		code, err := post(ts.URL, "insert Sale('Radio', 'Paula')")
		if err != nil {
			t.Error(err)
		}
		acked <- code
	}()
	<-reached
	during, err := queryStamped(ts.URL, "Sale")
	if err != nil {
		t.Fatalf("query beside a parked commit: %v", err)
	}
	if during.status != http.StatusOK || during.version != before.version || !bytes.Equal(during.result, before.result) {
		t.Fatalf("query beside a parked commit = %d at %q: %s\nwant the previous version %q: %s",
			during.status, during.version, during.result, before.version, before.result)
	}
	select {
	case code := <-acked:
		t.Fatalf("update acknowledged (%d) before its journal record was synced", code)
	default:
	}

	release()
	if code := <-acked; code != http.StatusOK {
		t.Fatalf("update after release: status %d", code)
	}
	after, err := queryStamped(ts.URL, "Sale")
	if err != nil || after.status != http.StatusOK {
		t.Fatalf("query after the update: %+v, %v", after, err)
	}
	if after.version == before.version || !bytes.Contains(after.result, []byte("Radio")) {
		t.Fatalf("query after the update = %q: %s, want a new version holding the Radio sale", after.version, after.result)
	}
}

// canonicalResult renders a /query result with its columns in attribute
// order and its rows sorted: Q and Q̂ agree on the tuple set, not on the
// column order.
func canonicalResult(t *testing.T, result []byte) string {
	t.Helper()
	var r struct {
		Attributes []string `json:"attributes"`
		Tuples     [][]any  `json:"tuples"`
	}
	if err := json.Unmarshal(result, &r); err != nil {
		t.Fatalf("result %s: %v", result, err)
	}
	cols := make([]int, len(r.Attributes))
	for i := range cols {
		cols[i] = i
	}
	sort.Slice(cols, func(i, j int) bool { return r.Attributes[cols[i]] < r.Attributes[cols[j]] })
	rows := make([]string, len(r.Tuples))
	for i, tu := range r.Tuples {
		row := make([]any, len(cols))
		for j, c := range cols {
			row[j] = tu[c]
		}
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	sort.Strings(r.Attributes)
	return fmt.Sprint(r.Attributes, rows)
}

// TestConcurrentVersionOracle is the torn-read check: while a writer
// applies updates that each change the view Sold and the complement
// C_Emp, every answer a reader gets must equal Q(d) on the model state d
// its X-DW-Version stamp denotes (Theorem 3.1, per version) — never a mix
// of one refresh's relations with another's. The query Emp translates to
// π(Sold) ∪ C_Emp, so it reads two relations of the same refresh. Some
// updates change an answer and others do not reach it, so the check covers
// all three paths of an answer: stored bytes served while their state is
// published, stored bytes carried forward across commits that leave them
// Q(d), and texts evaluated again otherwise.
func TestConcurrentVersionOracle(t *testing.T) {
	const updates, readers = 40, 3
	queries := []string{
		"Emp",
		"Sale",
		"sigma{clerk = 'e-7'}(Sale)",
		"pi{item, age}(Sale join Emp)",
		"pi{clerk}(Emp) minus pi{clerk}(Sale)",
		"pi{clerk}(sigma{age > 40}(Emp))", // reached by updates 21–40 only
	}
	// Update i hires e-i and books the previous hire's first sale: Sold
	// gains a tuple, C_Emp gains e-i and loses e-(i-1).
	spec := mustSpec(t, testSpec)
	ops := make([]string, updates+1)
	for i := 1; i <= updates; i++ {
		seller := "Paula"
		if i > 1 {
			seller = fmt.Sprintf("e-%d", i-1)
		}
		ops[i] = fmt.Sprintf("insert Emp('e-%d', %d)\ninsert Sale('item-%d', '%s')", i, 20+i, i, seller)
	}
	// want[lsn][qi] is Q(d) on the model state after the first lsn updates.
	want := make([][]string, updates+1)
	model := spec.State.Clone()
	for lsn := 0; lsn <= updates; lsn++ {
		if lsn > 0 {
			if err := mustOps(t, spec.DB, ops[lsn]).Apply(model); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			rows, err := dwc.EvalExpr(context.Background(), dwc.MustParseExpr(q), model)
			if err != nil {
				t.Fatal(err)
			}
			b, err := appendRelation(nil, rows.Relation())
			if err != nil {
				t.Fatal(err)
			}
			want[lsn] = append(want[lsn], canonicalResult(t, b))
		}
	}

	srv, ts := newDurableServer(t, t.TempDir(), 4)
	var wg sync.WaitGroup
	var done atomic.Bool
	seen := make([]map[string]bool, readers)
	for rd := range readers {
		seen[rd] = map[string]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := rd; !done.Load(); i++ {
				qi := i % len(queries)
				got, err := queryStamped(ts.URL, queries[qi])
				if err != nil || got.status != http.StatusOK {
					t.Errorf("%s: %+v, %v", queries[qi], got, err)
					return
				}
				var epoch, lsn int
				if _, err := fmt.Sscanf(got.version, "%d/%d", &epoch, &lsn); err != nil || lsn > updates {
					t.Errorf("%s: X-DW-Version %q", queries[qi], got.version)
					return
				}
				if res := canonicalResult(t, got.result); res != want[lsn][qi] {
					t.Errorf("%s at version %s:\ngot  %s\nwant %s", queries[qi], got.version, res, want[lsn][qi])
					return
				}
				seen[rd][got.version] = true
			}
		}()
	}
	for i := 1; i <= updates; i++ {
		postUpdate(t, ts.URL, ops[i])
	}
	done.Store(true)
	wg.Wait()
	for rd, versions := range seen {
		if len(versions) < 2 && !t.Failed() {
			t.Errorf("reader %d saw %d version(s); the check needs reads on both sides of a commit", rd, len(versions))
		}
	}
	carried := srv.carried.Load()
	reused := srv.mReused.Value() - carried
	if evaluated := srv.mQueries.Value() - reused - carried; reused == 0 || carried == 0 || evaluated <= int64(len(queries)) {
		t.Errorf("%d answers reused, %d carried, %d evaluated for %d texts: the check needs all three", reused, carried, evaluated, len(queries))
	}
}

// TestConcurrentCarryRegistration: readers build and register carry plans
// while a writer commits, and each commit resets some of them — a new hire
// past 40 changes the side σ{age > 40}(Emp) whose key set restricts Sale —
// so the next reader registers the plan again beside the next commit.
// Every answer must equal Q(d) at the state its X-DW-Version names, however
// a registration, a reset and a commit's pass interleave.
func TestConcurrentCarryRegistration(t *testing.T) {
	const updates, readers = 60, 3
	queries := []string{
		"sigma{age > 40}(Sale join Emp)",
		"pi{item}(sigma{age < 30}(Sale join Emp))",
		"sigma{clerk = 'e-7'}(Sale)",
		"pi{clerk}(Emp) minus pi{clerk}(Sale)",
	}
	// Update i hires e-i at 20+i and books a sale by the hire before: the
	// sale reaches a key set's answer only once its seller is past 40.
	spec := mustSpec(t, testSpec)
	ops := make([]string, updates+1)
	for i := 1; i <= updates; i++ {
		ops[i] = fmt.Sprintf("insert Emp('e-%d', %d)", i, 20+i)
		if i > 1 {
			ops[i] += fmt.Sprintf("\ninsert Sale('item-%d', 'e-%d')", i, i-1)
		}
	}
	want := make([][]string, updates+1)
	model := spec.State.Clone()
	for lsn := 0; lsn <= updates; lsn++ {
		if lsn > 0 {
			if err := mustOps(t, spec.DB, ops[lsn]).Apply(model); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			rows, err := dwc.EvalExpr(context.Background(), dwc.MustParseExpr(q), model)
			if err != nil {
				t.Fatal(err)
			}
			b, err := appendRelation(nil, rows.Relation())
			if err != nil {
				t.Fatal(err)
			}
			want[lsn] = append(want[lsn], canonicalResult(t, b))
		}
	}

	srv, ts := newDurableServer(t, t.TempDir(), 8)
	var wg sync.WaitGroup
	var done atomic.Bool
	for rd := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := rd; !done.Load(); i++ {
				qi := i % len(queries)
				got, err := queryStamped(ts.URL, queries[qi])
				if err != nil || got.status != http.StatusOK {
					t.Errorf("%s: %+v, %v", queries[qi], got, err)
					return
				}
				var epoch, lsn int
				if _, err := fmt.Sscanf(got.version, "%d/%d", &epoch, &lsn); err != nil || lsn > updates {
					t.Errorf("%s: X-DW-Version %q", queries[qi], got.version)
					return
				}
				if res := canonicalResult(t, got.result); res != want[lsn][qi] {
					t.Errorf("%s at version %s:\ngot  %s\nwant %s", queries[qi], got.version, res, want[lsn][qi])
					return
				}
			}
		}()
	}
	for i := 1; i <= updates; i++ {
		postUpdate(t, ts.URL, ops[i])
	}
	done.Store(true)
	wg.Wait()
	if st := srv.plans.snapshot(); st.Resets == 0 || srv.carried.Load() == 0 {
		t.Errorf("%+v, %d carried: the check needs plans reset and registered again, and answers carried", st, srv.carried.Load())
	}
}
