package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/replica"
	"dwcomplement/internal/snapshot"
)

// newReplicaNode builds one dwserve instance with its own snapshot
// directory (so promotion checkpoints are durable) and serves it.
func newReplicaNode(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(mustSpec(t, testSpec), dwc.Theorem22(), serverConfig{
		SnapshotDir:     t.TempDir(),
		CheckpointEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		srv.stopFollower()
		srv.drainCheckpoint() // before t.TempDir's own cleanup removes the directory
	})
	return srv, ts
}

// follow starts srv following leaderURL under a test-scoped context.
func follow(t *testing.T, srv *server, leaderURL string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv.StartFollower(ctx, leaderURL)
}

// coords reads a server's replication coordinates.
func coords(s *server) (epoch, lsn, seq uint64) {
	v := s.cur.Load()
	return v.epoch, v.lsn, v.marks[httpSource]
}

// waitLSN blocks until the server's applied LSN reaches want.
func waitLSN(t *testing.T, s *server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, lsn, _ := coords(s); lsn >= want {
			return
		}
		if time.Now().After(deadline) {
			_, lsn, _ := coords(s)
			t.Fatalf("follower stuck at LSN %d, want %d", lsn, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postUpdate applies one update-ops body to a node and fails the test
// on any non-200.
func postUpdate(t *testing.T, baseURL, ops string) {
	t.Helper()
	var out map[string]any
	if code := postText(t, baseURL+"/update", ops, &out); code != http.StatusOK {
		t.Fatalf("update %q: status %d: %v", ops, code, out)
	}
}

// assertSameState compares two warehouses relation by relation.
func assertSameState(t *testing.T, got, want *server, label string) {
	t.Helper()
	gotW, wantW := got.cur.Load().w, want.cur.Load().w
	for _, name := range wantW.Names() {
		wr, _ := wantW.Relation(name)
		gr, ok := gotW.Relation(name)
		if !ok {
			t.Fatalf("%s: missing relation %q", label, name)
		}
		if !gr.Equal(wr) {
			t.Errorf("%s: relation %q diverged:\ngot  %v\nwant %v", label, name, gr, wr)
		}
	}
}

// assertOracle compares one server's warehouse against a materialized
// oracle, bitwise per relation.
func assertOracle(t *testing.T, s *server, oracle map[string]*relation.Relation, label string) {
	t.Helper()
	w := s.cur.Load().w
	for name, want := range oracle {
		got, ok := w.Relation(name)
		if !ok {
			t.Fatalf("%s: missing relation %q", label, name)
		}
		if !got.Equal(want) {
			t.Errorf("%s: relation %q differs from oracle:\ngot  %v\nwant %v", label, name, got, want)
		}
	}
}

func TestFollowerCatchUpAndReadOnly(t *testing.T) {
	leader, lts := newReplicaNode(t)
	for i := 0; i < 3; i++ {
		postUpdate(t, lts.URL, fmt.Sprintf("insert Sale('item-%d', 'Mary')", i))
	}

	fsrv, fts := newReplicaNode(t)
	follow(t, fsrv, lts.URL)
	waitLSN(t, fsrv, 3)
	assertSameState(t, fsrv, leader, "after bootstrap+stream")

	// Live streaming: updates committed after the follower caught up
	// arrive without another bootstrap, both applied within 2 s of the
	// first one's ack (the catch-up lag bound).
	postUpdate(t, lts.URL, "insert Emp('Zoe', 41)")
	acked := time.Now()
	postUpdate(t, lts.URL, "insert Sale('item-9', 'Zoe')")
	waitLSN(t, fsrv, 5)
	if lag := time.Since(acked); lag > 2*time.Second {
		t.Fatalf("catch-up lag %v, bound 2s", lag)
	}
	assertSameState(t, fsrv, leader, "after live stream")

	// Exactly-once via the per-source watermark: the follower's http
	// sequence equals the leader's, not more.
	_, _, lseq := coords(leader)
	_, _, fseq := coords(fsrv)
	if lseq != 5 || fseq != 5 {
		t.Fatalf("watermarks: leader seq %d, follower seq %d, want 5", lseq, fseq)
	}

	// Mutating routes on the follower answer 409 with the typed error.
	var out map[string]string
	if code := postText(t, fts.URL+"/update", "insert Sale('x', 'Mary')", &out); code != http.StatusConflict {
		t.Fatalf("follower update: status %d, want 409", code)
	}
	if !strings.Contains(out["error"], "read-only replica") {
		t.Fatalf("follower update error %q", out["error"])
	}

	// Roles on /readyz: leader is leader, follower is follower with a
	// leader-link health block and a lag reading.
	var ready map[string]any
	getJSON(t, lts.URL+"/readyz", &ready)
	if ready["role"] != roleLeader {
		t.Fatalf("leader /readyz role = %v", ready["role"])
	}
	getJSON(t, fts.URL+"/readyz", &ready)
	if ready["role"] != roleFollower {
		t.Fatalf("follower /readyz role = %v", ready["role"])
	}
	if _, ok := ready["leader"]; !ok {
		t.Fatal("follower /readyz missing leader health")
	}
	if _, ok := ready["replicaLagSec"]; !ok {
		t.Fatal("follower /readyz missing replicaLagSec")
	}

	// The lag gauge is exposed on /metrics.
	_, metrics := getText(t, fts.URL+"/metrics")
	if !strings.Contains(metrics, "dw_replica_lag_seconds") {
		t.Fatal("follower /metrics missing dw_replica_lag_seconds")
	}
	// Records applied from the stream count in the same refresh series as
	// the leader's own updates.
	assertRefreshTelemetry(t, fts.URL, "Sold")
	assertRefreshTelemetry(t, lts.URL, "Sold")
}

// blockingWriter is a ResponseWriter whose first Write parks until
// released: a follower reading its bootstrap slowly.
type blockingWriter struct {
	hdr     http.Header
	body    bytes.Buffer
	reached chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *blockingWriter) Header() http.Header { return w.hdr }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.reached)
		<-w.release
	})
	return w.body.Write(p)
}

// TestReplicaSnapshotShipsOffTheLock: GET /replica/snapshot loads the
// published version and takes no lock, so a commit completes while a
// shipment is stuck mid-write — and the shipment still carries the
// version it loaded, not the later one.
func TestReplicaSnapshotShipsOffTheLock(t *testing.T) {
	leader, lts := newReplicaNode(t)
	postUpdate(t, lts.URL, "insert Sale('before', 'Mary')")
	w := &blockingWriter{hdr: http.Header{}, reached: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		leader.handleReplicaSnapshot(w, httptest.NewRequest(http.MethodGet, "/replica/snapshot", nil))
	}()
	<-w.reached
	postUpdate(t, lts.URL, "insert Sale('during', 'Mary')") // takes the writer lock
	close(w.release)
	<-done
	if got := w.hdr.Get(replica.HeaderLSN); got != "1" {
		t.Fatalf("shipment LSN header %q, want 1", got)
	}
	ms, marks, err := snapshot.LoadMarks(&w.body)
	if err != nil {
		t.Fatal(err)
	}
	if marks[httpSource] != 1 || ms["Sold"].Len() != 2 {
		t.Fatalf("shipment holds seq %d and %d Sold rows, want the version at seq 1 with 2 rows", marks[httpSource], ms["Sold"].Len())
	}
}

// TestFollowerTornStreamResume cuts the stream body mid-record
// (chaos.FaultyTransport PartialBody) once the follower has
// bootstrapped: the follower must apply only complete frames and
// resume from its durable watermark, converging to the leader's exact
// state without ever applying a partial record.
func TestFollowerTornStreamResume(t *testing.T) {
	leader, lts := newReplicaNode(t)
	postUpdate(t, lts.URL, "insert Sale('pre', 'Mary')")

	// Every other response arrives truncated mid-stream. Not 1.0: a
	// truncated single-frame body carries zero complete records, so a
	// follower one record behind needs the occasional clean response
	// to finish.
	ft := chaos.NewFaultyTransport(7, chaos.HTTPFaultConfig{PartialBody: 0.5}, nil)
	ft.SetEnabled(false) // let the snapshot bootstrap through untouched
	fsrv, _ := newReplicaNode(t)
	fsrv.followTransport = ft
	follow(t, fsrv, lts.URL)
	waitLSN(t, fsrv, 1)

	ft.SetEnabled(true)
	const n = 12
	for i := 0; i < n; i++ {
		postUpdate(t, lts.URL, fmt.Sprintf("insert Sale('torn-%d', 'Mary')", i))
	}
	waitLSN(t, fsrv, 1+n)
	assertSameState(t, fsrv, leader, "after torn stream")
	if st := ft.Stats(); st.Truncated == 0 {
		t.Fatalf("fault injector never truncated a body: %+v", st)
	}
	_, _, fseq := coords(fsrv)
	if fseq != 1+n {
		t.Fatalf("follower watermark %d, want %d (exactly-once across torn resumes)", fseq, 1+n)
	}
}

// TestPromoteFencing drives a fenced takeover and the double-promotion
// regression: the promoted replica answers its first query within 2 s of
// POST /promote (failover to first answer), promoting at an epoch at or
// below the current one is refused, a deposed leader's responses are
// rejected as stale by any fenced client, and the promoted replica
// accepts writes.
func TestPromoteFencing(t *testing.T) {
	leader, lts := newReplicaNode(t)
	postUpdate(t, lts.URL, "insert Sale('pre', 'Mary')")

	fsrv, fts := newReplicaNode(t)
	follow(t, fsrv, lts.URL)
	waitLSN(t, fsrv, 1)

	// Promote the follower to epoch 2.
	start := time.Now()
	resp, err := http.Post(fts.URL+"/promote?epoch=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if code, body := getText(t, fts.URL+"/query?q="+escape("Sale join Emp")); code != http.StatusOK {
		t.Fatalf("first query after promotion: status %d: %s", code, body)
	}
	if failover := time.Since(start); failover > 2*time.Second {
		t.Fatalf("promotion to first answer took %v, bound 2s", failover)
	}
	epoch, _, _ := coords(fsrv)
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d", epoch)
	}
	if fsrv.cur.Load().roleView() != roleLeader {
		t.Fatalf("promoted role = %s", fsrv.cur.Load().roleView())
	}

	// Double promotion with the same (now stale) epoch is refused.
	var out map[string]any
	if code := postText(t, fts.URL+"/promote?epoch=2", "", &out); code != http.StatusConflict {
		t.Fatalf("re-promote epoch 2: status %d, want 409", code)
	}
	// Promoting an active leader is refused too.
	if code := postText(t, lts.URL+"/promote?epoch=9", "", &out); code != http.StatusConflict {
		t.Fatalf("promote a leader: status %d, want 409", code)
	}

	// The promoted replica is writable again...
	postUpdate(t, fts.URL, "insert Sale('post-failover', 'Mary')")
	// ...and its new records carry epoch 2.
	entries, _, epoch, err2 := fsrv.rlog.From(2, 0)
	if err2 != nil || epoch != 2 || len(entries) != 1 || entries[0].Epoch != 2 {
		t.Fatalf("post-promotion log: entries=%+v epoch=%d err=%v", entries, epoch, err2)
	}

	// A client fenced at the new epoch rejects everything the deposed
	// leader (still serving epoch 1) answers.
	fenced := replica.NewClient(lts.URL, leader.db, remote.Config{
		AttemptTimeout: time.Second, MaxRetries: 0, Seed: 1,
	})
	fenced.SetMinEpoch(2)
	if _, err := fenced.FetchBatch(context.Background(), 1, 0); !errors.Is(err, replica.ErrStaleEpoch) {
		t.Fatalf("deposed leader stream: %v, want ErrStaleEpoch", err)
	}
	if _, err := fenced.FetchSnapshot(context.Background()); !errors.Is(err, replica.ErrStaleEpoch) {
		t.Fatalf("deposed leader snapshot: %v, want ErrStaleEpoch", err)
	}
}

// TestReplicationChaosSoak is the failover soak: a leader feeds two
// followers over a faulty network, a partition kills the leader from
// the followers' point of view mid-stream, the most-caught-up follower
// is promoted (fenced takeover), the other is re-pointed at it, and
// the remaining reports replay against the new leader. The final state
// of every surviving replica must be bitwise-equal to the
// MaterializeWarehouseCtx oracle of the surviving update sequence, with
// per-source watermarks proving no report applied twice, and the
// deposed leader's post-partition writes absent from the new lineage.
//
// Seeds come from DW_CHAOS_SEED: unset runs the three fixed CI seeds,
// "random" picks one from the clock and logs it for reproduction, and
// a number runs exactly that seed.
func TestReplicationChaosSoak(t *testing.T) {
	switch env := os.Getenv("DW_CHAOS_SEED"); env {
	case "":
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) { replicationSoak(t, seed) })
		}
	case "random":
		seed := time.Now().UnixNano()
		t.Logf("DW_CHAOS_SEED=%d # reproduce this run", seed)
		replicationSoak(t, seed)
	default:
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("DW_CHAOS_SEED=%q is neither empty, \"random\", nor a number", env)
		}
		replicationSoak(t, seed)
	}
}

func replicationSoak(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	leader, lts := newReplicaNode(t)
	lhost := mustHost(t, lts.URL)

	// Each follower's wire: a deterministic partition gate over a
	// probabilistic fault injector — the cut is scripted, torn bodies
	// and drops are rolled from the seed.
	newWire := func(s int64) *chaos.Partition {
		return chaos.NewPartition(chaos.NewFaultyTransport(s, chaos.HTTPFaultConfig{
			Drop:        0.05,
			PartialBody: 0.15,
		}, nil))
	}
	p1 := newWire(seed + 1)
	p2 := newWire(seed + 2)

	f1, f1ts := newReplicaNode(t)
	f1.followTransport = p1
	follow(t, f1, lts.URL)
	f2, f2ts := newReplicaNode(t)
	f2.followTransport = p2
	follow(t, f2, lts.URL)

	// The update script: every op is recorded so the oracle can replay
	// exactly the sequence that survives the failover. Sale rows only
	// name clerks already inserted, honoring the IND.
	var script []string
	clerks := []string{"Mary", "Paula"}
	nextOp := func() string {
		i := len(script)
		if rng.Intn(4) == 0 {
			clerk := fmt.Sprintf("clerk-%d", i)
			clerks = append(clerks, clerk)
			return fmt.Sprintf("insert Emp('%s', %d)", clerk, 20+rng.Intn(40))
		}
		return fmt.Sprintf("insert Sale('item-%d', '%s')", i, clerks[rng.Intn(len(clerks))])
	}

	// Phase 1: commit a batch on the leader while both followers stream.
	pre := 10 + rng.Intn(10)
	for i := 0; i < pre; i++ {
		op := nextOp()
		script = append(script, op)
		postUpdate(t, lts.URL, op)
	}
	// Let the followers make some progress — but don't require full
	// catch-up: the partition hits mid-stream.
	time.Sleep(time.Duration(rng.Intn(200)) * time.Millisecond)

	// Phase 2: the partition "kills" the leader from the followers' view.
	// The cut gates new requests only — a long-poll opened before the cut
	// still delivers, exactly like a real partition racing in-flight
	// responses — so drain that window before the guaranteed-lost writes.
	p1.CutHost(lhost)
	p2.CutHost(lhost)
	time.Sleep(followPollWait + 200*time.Millisecond)

	// The deposed leader doesn't know and keeps acknowledging writes —
	// these must never reach the new lineage. They go into the script
	// too: the oracle replays script[:survived], and the assertion below
	// pins survived at or below pre, so the lost suffix never enters it.
	lost := 2
	for i := 0; i < lost; i++ {
		op := nextOp()
		script = append(script, op)
		postUpdate(t, lts.URL, op)
	}

	// Phase 3: promote the most-caught-up follower; epoch 2 fences the
	// old term.
	_, l1, _ := coords(f1)
	_, l2, _ := coords(f2)
	winner, winnerTS, loser, loserTS := f1, f1ts, f2, f2ts
	if l2 > l1 {
		winner, winnerTS, loser, loserTS = f2, f2ts, f1, f1ts
	}
	resp, err := http.Post(winnerTS.URL+"/promote?epoch=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	// Read the surviving prefix length after promotion: the follower
	// loop is detached under the same lock, so the LSN is frozen now.
	_, survived, _ := coords(winner)
	if survived > uint64(pre) {
		t.Fatalf("winner applied %d records, but the lost suffix starts at %d", survived, pre+1)
	}

	// Phase 4: re-point the loser at the new leader (if it was ahead of
	// the winner it gets ErrFuture/ErrTrimmed and re-bootstraps from the
	// new lineage's snapshot) and replay the remaining reports there.
	resp, err = http.Post(loserTS.URL+"/replica/repoint?leader="+url.QueryEscape(winnerTS.URL), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repoint: status %d", resp.StatusCode)
	}
	post := 8 + rng.Intn(8)
	var postOps []string
	for i := 0; i < post; i++ {
		op := nextOp()
		postOps = append(postOps, op)
		postUpdate(t, winnerTS.URL, op)
	}
	waitLSN(t, loser, survived+uint64(post))

	// The oracle: initial state + the surviving prefix (what the winner
	// had applied at promotion — LSN k is exactly update k) + everything
	// committed on the new lineage. The deposed leader's unstreamed
	// suffix, including the post-partition write, is gone by design.
	spec := mustSpec(t, testSpec)
	state := spec.State.Clone()
	for _, op := range append(append([]string{}, script[:survived]...), postOps...) {
		u, err := dwc.ParseUpdateOps(spec.DB, op)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Apply(state); err != nil {
			t.Fatal(err)
		}
	}
	oracle, err := winner.comp.MaterializeWarehouseCtx(nil, state)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, winner, oracle, "promoted leader")
	assertOracle(t, loser, oracle, "repointed follower")
	assertSameState(t, loser, winner, "replicas")

	// Exactly-once via the per-source watermark: every surviving http
	// report applied exactly once on both replicas — and the deposed
	// leader really did acknowledge the write that was lost.
	wantSeq := survived + uint64(post)
	if _, _, seq := coords(winner); seq != wantSeq {
		t.Fatalf("winner watermark %d, want %d", seq, wantSeq)
	}
	if _, _, seq := coords(loser); seq != wantSeq {
		t.Fatalf("loser watermark %d, want %d", seq, wantSeq)
	}
	if _, _, seq := coords(leader); seq != uint64(pre+lost) {
		t.Fatalf("deposed leader watermark %d, want %d", seq, pre+lost)
	}

	// Fencing: heal the partition — the deposed leader is reachable
	// again, still serving epoch 1, and a client fenced at epoch 2
	// rejects its records with the stale epoch.
	p1.Heal()
	p2.Heal()
	fenced := replica.NewClient(lts.URL, spec.DB, remote.Config{
		AttemptTimeout: time.Second, MaxRetries: 0, Seed: seed,
	})
	fenced.SetMinEpoch(2)
	if _, err := fenced.FetchBatch(context.Background(), 1, 0); !errors.Is(err, replica.ErrStaleEpoch) {
		t.Fatalf("deposed leader after heal: %v, want ErrStaleEpoch", err)
	}
}

func mustHost(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}
