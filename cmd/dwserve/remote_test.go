package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/source"
)

// remoteSpec has no initial state: in the remote deployment the data
// lives at the sources and arrives through their reporting channels.
const remoteSpec = `
relation Sale(item string, clerk string)
relation Emp(clerk string, age int) key(clerk)
view Sold = pi{item, clerk, age}(Sale join Emp)
`

// quickRemoteConfig shrinks every client duration for tests.
func quickRemoteConfig() remote.Config {
	return remote.Config{
		AttemptTimeout:   time.Second,
		MaxRetries:       -1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		PollWait:         50 * time.Millisecond,
		PollInterval:     time.Millisecond,
	}
}

// remoteRig is a dwserve server wired to one real dwsource-style HTTP
// source owning Sale and one owning Emp.
type remoteRig struct {
	spec    *dwc.Spec
	srv     *server
	ts      *httptest.Server
	sales   *source.Source
	company *source.Source
	clients map[string]*remote.Client
}

func newRemoteRig(t *testing.T) *remoteRig {
	t.Helper()
	rig := remoteSources(t, quickRemoteConfig())
	rig.start(t, serverConfig{})
	return rig
}

// remoteSources serves the two sources over HTTP and builds their
// clients, which start builds a server around.
func remoteSources(t *testing.T, cfg remote.Config) *remoteRig {
	t.Helper()
	spec, err := dwc.ParseSpec(remoteSpec)
	if err != nil {
		t.Fatal(err)
	}
	rig := &remoteRig{spec: spec, clients: map[string]*remote.Client{}}
	for name, rel := range map[string]string{"sales": "Sale", "company": "Emp"} {
		src, err := source.NewSource(name, spec.DB, true, rel)
		if err != nil {
			t.Fatal(err)
		}
		sts := httptest.NewServer(remote.NewSourceServer(src).Handler())
		t.Cleanup(sts.Close)
		rig.clients[name] = remote.NewClient(name, sts.URL, spec.DB, cfg)
		if name == "sales" {
			rig.sales = src
		} else {
			rig.company = src
		}
	}
	return rig
}

// start boots a server with cfg, attaches the clients and starts them at
// the watermarks the server recovered.
func (rig *remoteRig) start(t *testing.T, cfg serverConfig) {
	t.Helper()
	srv, err := newServer(rig.spec, dwc.Theorem22(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rig.clients {
		srv.AttachRemote(c)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv.startRemotes(ctx)
	t.Cleanup(srv.stopRemotes)
	rig.srv, rig.ts = srv, httptest.NewServer(srv.handler())
	t.Cleanup(srv.drainCheckpoint)
	t.Cleanup(rig.ts.Close)
}

// restart crashes a durable server and boots its successor from the same
// directory, with the clients rewound to what it recovered.
func (rig *remoteRig) restart(t *testing.T) {
	t.Helper()
	rig.srv.stopRemotes()
	crash(t, rig.srv, rig.ts)
	rig.start(t, rig.srv.cfg)
}

// mark is the server's published watermark of the named source.
func (rig *remoteRig) mark(name string) uint64 { return rig.srv.cur.Load().marks[name] }

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// TestRemoteSourcesFeedWarehouse: transactions applied at the sources
// flow over the wire into the warehouse's materialized view, and
// /readyz reports both sources healthy.
func TestRemoteSourcesFeedWarehouse(t *testing.T) {
	rig := newRemoteRig(t)
	if _, err := rig.company.Apply(mustOps(t, rig.srv.db, `insert Emp('Mary', 23)`)); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.sales.Apply(mustOps(t, rig.srv.db, `insert Sale('TV set', 'Mary')`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		var sizes map[string]int
		getJSON(t, rig.ts.URL+"/relations", &sizes)
		return sizes["Sold"] == 1
	})

	var ready struct {
		Ready    bool `json:"ready"`
		Degraded bool `json:"degraded"`
		Sources  map[string]struct {
			State        string  `json:"state"`
			Breaker      string  `json:"breaker"`
			StalenessSec float64 `json:"stalenessSec"`
		} `json:"sources"`
	}
	if code := getJSON(t, rig.ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	if !ready.Ready || ready.Degraded {
		t.Fatalf("readyz body = %+v, want ready and not degraded", ready)
	}
	for name, h := range ready.Sources {
		if h.State != "healthy" || h.Breaker != "closed" {
			t.Fatalf("source %s health = %+v", name, h)
		}
	}
	if len(ready.Sources) != 2 {
		t.Fatalf("readyz reported %d sources, want 2", len(ready.Sources))
	}
	// Reports applied through -source count in the same series as POST
	// /update (they used to be missing from all but dw_refreshes_total).
	assertRefreshTelemetry(t, rig.ts.URL, "Sold")
}

// TestQuarantinedSourceDegradesNotUnready: when a remote source goes
// dark its client quarantines, /readyz flips to degraded — but stays
// 200, so load balancers keep routing to the warehouse, which serves
// its last good state with per-source staleness advertised on reads.
func TestQuarantinedSourceDegradesNotUnready(t *testing.T) {
	rig := newRemoteRig(t)
	// Seed one row so reads have something to serve stale.
	if _, err := rig.company.Apply(mustOps(t, rig.srv.db, `insert Emp('Mary', 23)`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return rig.clients["company"].Cursor() == 1 })

	// The sales source goes dark: dead endpoint, breaker trips.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	c := rig.clients["sales"]
	c.Close()
	c2 := remote.NewClient("sales", deadURL, rig.srv.db, quickRemoteConfig())
	rig.srv.AttachRemote(c2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rig.srv.startRemotes(ctx)
	defer c2.Close()
	waitUntil(t, 5*time.Second, c2.Quarantined)

	var ready struct {
		Ready    bool `json:"ready"`
		Degraded bool `json:"degraded"`
		Sources  map[string]struct {
			State string `json:"state"`
		} `json:"sources"`
	}
	code := getJSON(t, rig.ts.URL+"/readyz", &ready)
	if code != http.StatusOK {
		t.Fatalf("readyz status = %d, want 200 (degraded, not unready)", code)
	}
	if !ready.Ready || !ready.Degraded {
		t.Fatalf("readyz body = %+v, want ready AND degraded", ready)
	}
	if got := ready.Sources["sales"].State; got != "quarantined" {
		t.Fatalf("sales state = %q, want quarantined", got)
	}

	// Reads still work and advertise the stale source on the header.
	resp, err := http.Get(rig.ts.URL + "/relations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read while degraded = %d", resp.StatusCode)
	}
	hdr := resp.Header.Get("X-DW-Staleness")
	if !strings.Contains(hdr, "sales=") {
		t.Fatalf("X-DW-Staleness = %q, want a sales= entry", hdr)
	}
}

// mustOps parses update ops against the spec's database.
func mustOps(t *testing.T, db *dwc.Database, text string) *dwc.Update {
	t.Helper()
	u, err := dwc.ParseUpdateOps(db, text)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// setAsideStats is the setAside object of GET /stats.
type setAsideStats struct {
	Total  int `json:"total"`
	Recent []struct {
		Source string `json:"source"`
		Seq    uint64 `json:"seq"`
		Reason string `json:"reason"`
	} `json:"recent"`
}

// TestRemoteRefreshFailureSetAside: a remote report whose refresh fails
// is set aside — never applied, listed once in /stats, its source's
// watermark past it — and the source's later reports still apply without
// the server reporting itself degraded.
func TestRemoteRefreshFailureSetAside(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	rig := newRemoteRig(t)
	if _, err := rig.company.Apply(mustOps(t, rig.srv.db, `insert Emp('Mary', 23)`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return rig.mark("company") == 1 })

	chaos.Arm("refresh.apply", 1, errors.New("injected refresh failure"))
	if _, err := rig.sales.Apply(mustOps(t, rig.srv.db, `insert Sale('TV set', 'Mary')`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return rig.mark("sales") == 1 })
	if !chaos.Fired("refresh.apply") {
		t.Fatal("the armed refresh failure never fired")
	}
	if _, err := rig.sales.Apply(mustOps(t, rig.srv.db, `insert Sale('VCR', 'Mary')`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return rig.mark("sales") == 2 })
	time.Sleep(3 * quickRemoteConfig().PollWait) // a rewind would fetch report 1 again by now

	sold, _ := rig.srv.cur.Load().w.Relation("Sold")
	want := relation.Tuple{relation.Int(23), relation.String_("Mary"), relation.String_("VCR")} // age, clerk, item
	if sold.Len() != 1 || !sold.Contains(want) {
		t.Fatalf("Sold = %v, want the VCR alone: the failed report is never applied", sold)
	}
	var stats struct {
		SetAside setAsideStats `json:"setAside"`
	}
	getJSON(t, rig.ts.URL+"/stats", &stats)
	sa := stats.SetAside
	if sa.Total != 1 || len(sa.Recent) != 1 || sa.Recent[0].Source != "sales" || sa.Recent[0].Seq != 1 ||
		!strings.Contains(sa.Recent[0].Reason, "injected refresh failure") {
		t.Fatalf("/stats setAside = %+v, want sales report 1 once, with its reason", sa)
	}
	var ready struct {
		Degraded bool `json:"degraded"`
	}
	if code := getJSON(t, rig.ts.URL+"/readyz", &ready); code != http.StatusOK || ready.Degraded {
		t.Fatalf("readyz = %d %+v, want 200 and not degraded", code, ready)
	}
}

// TestRemoteJournalFailureFetchesAgain: a remote report whose journal
// write fails is not published; its client fetches it again, so the
// journal holds the source's reports without a hole, and a restart with
// no checkpoint recovers every one of them.
func TestRemoteJournalFailureFetchesAgain(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	rig := remoteSources(t, quickRemoteConfig())
	rig.start(t, serverConfig{SnapshotDir: t.TempDir(), CheckpointEvery: 1000})
	if _, err := rig.company.Apply(mustOps(t, rig.srv.db, `insert Emp('Mary', 23)`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return rig.mark("company") == 1 })
	chaos.Arm("journal.append", 1, errors.New("injected write failure"))
	for _, item := range []string{"TV set", "VCR"} {
		if _, err := rig.sales.Apply(mustOps(t, rig.srv.db, "insert Sale('"+item+"', 'Mary')")); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, func() bool { return rig.mark("sales") == 2 })
	if !chaos.Fired("journal.append") {
		t.Fatal("the armed write failure never fired")
	}
	rig.restart(t)
	if rig.srv.replayed != 3 {
		t.Fatalf("replayed %d journal records, want all 3 reports", rig.srv.replayed)
	}
	if sold, _ := rig.srv.cur.Load().w.Relation("Sold"); sold.Len() != 2 {
		t.Fatalf("Sold after restart = %v, want both sales", sold)
	}
}
