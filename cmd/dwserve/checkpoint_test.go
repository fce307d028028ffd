package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/trace"
)

// oracleAfter materializes the warehouse of the spec's initial state
// with the updates applied in order — W(d'), the state every recovery
// must equal.
func oracleAfter(t *testing.T, s *server, updates []*dwc.Update) map[string]*relation.Relation {
	t.Helper()
	state := mustSpec(t, testSpec).State.Clone()
	for _, u := range updates {
		if err := u.Apply(state); err != nil {
			t.Fatal(err)
		}
	}
	oracle, err := s.comp.MaterializeWarehouseCtx(nil, state)
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

// parseOps parses update-ops bodies as POST /update would.
func parseOps(t *testing.T, ops ...string) []*dwc.Update {
	t.Helper()
	spec := mustSpec(t, testSpec)
	out := make([]*dwc.Update, len(ops))
	for i, op := range ops {
		out[i] = mustOps(t, spec.DB, op)
	}
	return out
}

// post sends one update and returns the status; safe off the test
// goroutine.
func post(url, ops string) (int, error) {
	resp, err := http.Post(url+"/update", "text/plain", strings.NewReader(ops))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// TestCheckpointCrashMatrix interrupts a background checkpoint at each of
// its steps while further updates are acknowledged, then recovers from
// disk alone. Whatever the checkpoint left behind — old snapshot and
// full journal, new snapshot and full journal, new snapshot and suffix —
// must recover to exactly the acknowledged updates, replaying exactly
// the records past the snapshot that survived, twice over.
func TestCheckpointCrashMatrix(t *testing.T) {
	const every, during = 4, 3
	for _, tc := range []struct {
		point    string // where the checkpoint dies ("" = it completes)
		replayed int    // records past the surviving snapshot's mark
	}{
		{"snapshot.write", every + during},  // no snapshot yet
		{"snapshot.rename", every + during}, // temp file written, never renamed
		{"checkpoint.compact", during},      // new snapshot, full journal
		{"journal.compact", during},         // new snapshot, suffix copied but not swapped in
		{"", during},                        // new snapshot, suffix
	} {
		name := tc.point
		if name == "" {
			name = "completes"
		}
		t.Run(name, func(t *testing.T) {
			chaos.Reset()
			defer chaos.Reset()
			dir := t.TempDir()
			srv, ts := newDurableServer(t, dir, every)
			// Park the checkpointer at its first step (not at journal.compact:
			// that one is traversed under the journal's lock, which the acks
			// below need) and arm the crash to fire once it is released.
			if tc.point != "" {
				chaos.Arm(tc.point, 1, nil)
			}
			reached, release := chaos.Hold("snapshot.write")
			defer release()

			var acked []string
			ack := func(n int) {
				for i := 0; i < n; i++ {
					op := fmt.Sprintf("insert Sale('item-%d', 'Mary')", len(acked))
					postUpdate(t, ts.URL, op)
					acked = append(acked, op)
				}
			}
			ack(every) // the last of these cuts the checkpoint
			<-reached
			ack(during) // acknowledged while it is in flight
			release()
			crash(t, srv, ts)
			if tc.point != "" && !chaos.Fired(tc.point) {
				t.Fatalf("crash point %s never fired", tc.point)
			}
			chaos.Reset()

			oracle := oracleAfter(t, srv, parseOps(t, acked...))
			for boot := 1; boot <= 2; boot++ {
				srv2, ts2 := newDurableServer(t, dir, 1000) // recovery only: no new checkpoint
				if srv2.replayed != tc.replayed {
					t.Fatalf("boot %d: replayed %d records, want %d", boot, srv2.replayed, tc.replayed)
				}
				if _, _, seq := coords(srv2); seq != uint64(len(acked)) {
					t.Fatalf("boot %d: seq %d, want %d", boot, seq, len(acked))
				}
				assertOracle(t, srv2, oracle, fmt.Sprintf("boot %d", boot))
				crash(t, srv2, ts2)
			}
		})
	}
}

// TestCheckpointOffCommitPath parks the checkpointer inside its snapshot
// write and shows that updates and queries still complete — the commit
// path does no snapshot I/O under s.mu — until the journal has run
// backlogFactor × CheckpointEvery records ahead; that commit waits, and
// proceeds once the checkpoint finishes.
func TestCheckpointOffCommitPath(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	srv, ts := newDurableServer(t, t.TempDir(), 1)
	reached, release := chaos.Hold("snapshot.write")
	defer release()

	postUpdate(t, ts.URL, "insert Sale('item-0', 'Mary')") // cuts checkpoint 1
	<-reached
	for i := 1; i < backlogFactor; i++ {
		postUpdate(t, ts.URL, fmt.Sprintf("insert Sale('item-%d', 'Mary')", i))
	}
	var q map[string]any
	if code := getJSON(t, ts.URL+"/query?q="+escape("Sale"), &q); code != http.StatusOK {
		t.Fatalf("query beside a parked checkpoint: status %d", code)
	}
	var stats struct {
		Checkpoint struct {
			InFlight       bool `json:"inFlight"`
			JournalRecords int  `json:"journalRecords"`
		} `json:"checkpoint"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if !stats.Checkpoint.InFlight || stats.Checkpoint.JournalRecords != backlogFactor {
		t.Fatalf("/stats checkpoint = %+v, want in flight with %d journal records", stats.Checkpoint, backlogFactor)
	}

	// The journal now holds backlogFactor × CheckpointEvery records: the
	// next commit waits for the checkpoint instead of appending.
	blocked := make(chan int, 1)
	go func() {
		code, err := post(ts.URL, fmt.Sprintf("insert Sale('item-%d', 'Mary')", backlogFactor))
		if err != nil {
			t.Error(err)
		}
		blocked <- code
	}()
	select {
	case code := <-blocked:
		t.Fatalf("commit past the backlog cap returned %d while the checkpoint was parked", code)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("commit after the checkpoint finished: status %d", code)
	}
	srv.drainCheckpoint()

	_, metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf(`dw_checkpoints_total{outcome="skipped_inflight"} %d`, backlogFactor-1),
		"# TYPE dw_checkpoint_duration_seconds histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every outcome's series exists from boot, at 0 until counted.
	if !strings.Contains(metrics, `dw_checkpoints_total{outcome="ok"}`) || strings.Contains(metrics, `dw_checkpoints_total{outcome="ok"} 0`+"\n") {
		t.Errorf("no completed checkpoint counted:\n%s", metrics)
	}
}

// TestCheckpointFailureDegradesAndRetries: a failed background checkpoint
// costs no ack — the update that cut it already answered 200 — flags the
// server degraded until a checkpoint succeeds, and the next ack retries.
func TestCheckpointFailureDegradesAndRetries(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 2)
	chaos.Arm("snapshot.rename", 1, nil)
	postUpdate(t, ts.URL, "insert Sale('a', 'Mary')")
	postUpdate(t, ts.URL, "insert Sale('b', 'Mary')") // cuts the checkpoint that fails
	srv.drainCheckpoint()
	if !srv.degraded.Load() {
		t.Fatal("failed checkpoint did not flag the server degraded")
	}
	if _, err := os.Stat(checkpointPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint left a snapshot: %v", err)
	}
	postUpdate(t, ts.URL, "insert Sale('c', 'Mary')") // retries: the trigger counts the failed cut's acks again
	srv.drainCheckpoint()
	if srv.degraded.Load() {
		t.Fatal("still degraded after the retried checkpoint succeeded")
	}
	_, metrics := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		`dw_checkpoints_total{outcome="error"} 1`,
		`dw_checkpoints_total{outcome="ok"} 1`,
		"dw_checkpoint_duration_seconds_count 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	var stats struct {
		Checkpoint struct {
			LastLsn        uint64 `json:"lastLsn"`
			LastDurationNs int64  `json:"lastDurationNs"`
			InFlight       bool   `json:"inFlight"`
			JournalRecords int    `json:"journalRecords"`
		} `json:"checkpoint"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if c := stats.Checkpoint; c.LastLsn != 3 || c.LastDurationNs <= 0 || c.InFlight || c.JournalRecords != 0 {
		t.Fatalf("/stats checkpoint = %+v, want lastLsn 3, a duration, idle, empty journal", c)
	}
	crash(t, srv, ts)
	srv2, _ := newDurableServer(t, dir, 1000)
	if srv2.replayed != 0 {
		t.Fatalf("replayed %d records after the retried checkpoint, want 0", srv2.replayed)
	}
}

// TestCheckpointSpan: a sampled checkpoint leaves one root span naming
// what it cut and what each step cost.
func TestCheckpointSpan(t *testing.T) {
	srv, err := newServer(mustSpec(t, testSpec), dwc.Theorem22(),
		serverConfig{SnapshotDir: t.TempDir(), CheckpointEvery: 1, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	postUpdate(t, ts.URL, "insert Sale('a', 'Mary')")
	srv.drainCheckpoint()
	store := srv.tracer.Store()
	for _, sum := range store.Traces(traceListCap) {
		if sum.Root != "checkpoint" {
			continue
		}
		id, _ := trace.ParseTraceID(sum.TraceID)
		spans, _ := store.Trace(id)
		attrs := map[string]string{}
		for _, a := range spans[0].Attrs {
			attrs[a.Key] = a.Value
		}
		for _, key := range []string{"lsn", "relations", "bytes", "pagesEncoded", "pagesReused", "encodeUs", "fsyncUs", "compactUs"} {
			if _, ok := attrs[key]; !ok {
				t.Errorf("checkpoint span lacks %q: %v", key, attrs)
			}
		}
		if attrs["lsn"] != "1" {
			t.Errorf("checkpoint span lsn = %q, want 1", attrs["lsn"])
		}
		return
	}
	t.Fatal("no checkpoint trace retained")
}

// TestBootSweepsSnapshotTemps: a kill mid-checkpoint leaves a .snap-*
// temp file; the next boot removes it and recovers from state.snap and the
// journal as if it had never been there. Files that older builds wrote
// beside the checkpoint (testdata/leftover: their maintenance estimates
// and a torn temp of them) are neither read nor in the way.
func TestBootSweepsSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 1)
	postUpdate(t, ts.URL, "insert Sale('a', 'Mary')")
	crash(t, srv, ts)
	stale := filepath.Join(dir, ".snap-123456")
	if err := os.WriteFile(stale, []byte("half a file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "..", "testdata", "leftover"))); err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newDurableServer(t, dir, 1000)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("boot kept the stale temp file %s: %v", stale, err)
	}
	if _, _, seq := coords(srv2); seq != 1 {
		t.Fatalf("seq %d after boot, want 1", seq)
	}
	if got := soldCount(t, ts2); got != 2 {
		t.Fatalf("Sold count = %d, want 2", got)
	}
}

// TestConcurrentCheckpointHammer runs writers on a leader and readers on
// both nodes while leader and follower checkpoint back to back in the
// background (CheckpointEvery 2), promotes the follower mid-stream, and
// then holds both to the oracle — in memory, and again after a restart
// from what the checkpoints and journals left on disk. Run with -race.
func TestConcurrentCheckpointHammer(t *testing.T) {
	const writers, perWriter = 3, 20
	newNode := func(dir string) (*server, *httptest.Server) {
		srv, err := newServer(mustSpec(t, testSpec), dwc.Theorem22(),
			serverConfig{SnapshotDir: dir, CheckpointEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.handler())
		t.Cleanup(func() {
			ts.Close()
			srv.stopFollower()
			srv.drainCheckpoint()
		})
		return srv, ts
	}
	ldir, fdir := t.TempDir(), t.TempDir()
	leader, lts := newNode(ldir)
	fsrv, fts := newNode(fdir)
	follow(t, fsrv, lts.URL)

	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				code, err := post(lts.URL, fmt.Sprintf("insert Sale('item-%d-%d', 'Mary')", wr, i))
				if err != nil || code != http.StatusOK {
					t.Errorf("writer %d update %d: status %d err %v", wr, i, code, err)
					return
				}
			}
		}(wr)
	}
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for _, url := range []string{lts.URL, fts.URL} {
		readers.Add(1)
		go func(url string) {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				resp, err := http.Get(url + "/query?q=" + escape("pi{clerk}(Sale join Emp)"))
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query on %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(url)
	}

	// Promote once the follower has applied (and checkpointed) a stretch
	// of the stream; the writers keep going on the deposed leader.
	waitLSN(t, fsrv, 10)
	resp, err := http.Post(fts.URL+"/promote?epoch=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	postUpdate(t, fts.URL, "insert Sale('after-promotion', 'Paula')")
	wg.Wait()
	close(stopReaders)
	readers.Wait()

	// LSN k on the leader is its k-th commit, so its retained log is the
	// order the oracle replays; the promoted follower holds the prefix it
	// had applied, plus its own write.
	entries, _, _, err := leader.rlog.From(1, 0)
	if err != nil || len(entries) != writers*perWriter {
		t.Fatalf("leader log: %d entries, err %v, want %d", len(entries), err, writers*perWriter)
	}
	_, flsn, _ := coords(fsrv)
	survived := int(flsn) - 1
	if survived < 10 || survived > len(entries) {
		t.Fatalf("promoted follower at LSN %d, outside [11, %d]", flsn, len(entries)+1)
	}
	spec := mustSpec(t, testSpec)
	committed := make([]*dwc.Update, len(entries))
	for i, e := range entries {
		rec, err := journal.NewStreamReader(bytes.NewReader(e.Frame), spec.DB).Next()
		if err != nil {
			t.Fatal(err)
		}
		committed[i] = rec.Update
	}
	leaderOracle := oracleAfter(t, leader, committed)
	followerOracle := oracleAfter(t, fsrv, append(committed[:survived:survived],
		parseOps(t, "insert Sale('after-promotion', 'Paula')")...))
	assertOracle(t, leader, leaderOracle, "leader")
	assertOracle(t, fsrv, followerOracle, "promoted follower")

	// Both nodes again, from disk: whatever mix of checkpoint and journal
	// suffix the hammer left recovers to the same states.
	for _, n := range []struct {
		srv    *server
		ts     *httptest.Server
		dir    string
		oracle map[string]*relation.Relation
	}{{leader, lts, ldir, leaderOracle}, {fsrv, fts, fdir, followerOracle}} {
		n.ts.Close()
		n.srv.stopFollower()
		n.srv.drainCheckpoint()
		if err := n.srv.jw.Close(); err != nil {
			t.Fatal(err)
		}
		again, _ := newDurableServer(t, n.dir, 1000)
		assertOracle(t, again, n.oracle, "recovered from "+n.dir)
	}
}

// TestCrashPointNames keeps the chaos points the crash matrices arm in
// step with the code: an unknown name would arm nothing and pass.
func TestCrashPointNames(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	points := []string{"snapshot.write", "snapshot.rename", "checkpoint.compact", "journal.compact", "journal.withdraw"}
	for _, p := range points {
		chaos.Arm(p, 0, errors.New("count only"))
	}
	// The second update is acknowledged while the first one's checkpoint
	// is parked, so the compaction has a suffix to copy.
	reached, release := chaos.Hold("snapshot.write")
	defer release()
	srv, ts := newDurableServer(t, t.TempDir(), 1)
	postUpdate(t, ts.URL, "insert Sale('a', 'Mary')")
	<-reached
	postUpdate(t, ts.URL, "insert Sale('b', 'Mary')")
	release()
	srv.drainCheckpoint()
	// An update whose refresh fails withdraws the journal record written
	// before it.
	chaos.Arm("refresh.apply", 1, nil)
	if code, err := post(ts.URL, "insert Sale('c', 'Mary')"); err != nil || code != http.StatusInternalServerError {
		t.Fatalf("update with a failing refresh: status %d, err %v; want 500", code, err)
	}
	for _, p := range points {
		if chaos.Hits(p) == 0 {
			t.Errorf("crash point %q is never traversed by a checkpoint or a withdrawal", p)
		}
	}
}
