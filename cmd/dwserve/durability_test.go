package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	dwc "dwcomplement"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/snapshot"
)

// corruptFile flips one bit at the given offset.
func corruptFile(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// httpSeq is the sequence of the last acknowledged HTTP update.
func httpSeq(s *server) uint64 { return s.cur.Load().marks[httpSource] }

// newDurableServer builds a server in the crash-recoverable regime
// (-snapshot-dir + journal) and returns both handles: the raw server
// for white-box checks and the HTTP wrapper for traffic.
func newDurableServer(t *testing.T, dir string, every int) (*server, *httptest.Server) {
	t.Helper()
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{SnapshotDir: dir, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	// Registered after the caller's t.TempDir, so a checkpoint still in
	// flight has finished before the directory is removed.
	t.Cleanup(srv.drainCheckpoint)
	t.Cleanup(ts.Close)
	return srv, ts
}

// crash stops a durable server the way a kill would leave it, minus the
// timing: no shutdown() and no final checkpoint. Only what the acks
// already made durable survives; a background checkpoint is allowed to
// finish first (the crash matrix covers the ones that do not).
func crash(t *testing.T, srv *server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	srv.drainCheckpoint()
	if err := srv.jw.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(srv.cfg.SnapshotDir, "wal.dwj")); err != nil || fi.Size() != int64(len(readWAL(t, srv.cfg.SnapshotDir))) {
		t.Fatalf("wal.dwj after Close is more than its records (stat %v)", err)
	}
}

// soldCount reads the Sold view's tuple count over HTTP.
func soldCount(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	var rel struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/relations/Sold", &rel); code != 200 {
		t.Fatalf("/relations/Sold status %d", code)
	}
	return rel.Count
}

// TestJournalRecoveryOverHTTP acknowledges updates, kills the server
// without a checkpoint, and boots a successor from the same directory:
// every acknowledged update must reappear, exactly once.
func TestJournalRecoveryOverHTTP(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 1000) // no periodic checkpoint
	var out map[string]any
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf("insert Sale('item-%d', 'Mary')", i)
		if code := postText(t, ts.URL+"/update", body, &out); code != 200 {
			t.Fatalf("update %d status %d: %v", i, code, out)
		}
	}
	if got := soldCount(t, ts); got != 4 { // seed row + 3 inserts
		t.Fatalf("Sold count = %d, want 4", got)
	}
	// Crash: no shutdown(), no checkpoint — only the journal survives.
	crash(t, srv, ts)

	srv2, ts2 := newDurableServer(t, dir, 1000)
	if srv2.replayed != 3 || httpSeq(srv2) != 3 {
		t.Fatalf("replayed=%d seq=%d, want 3/3", srv2.replayed, httpSeq(srv2))
	}
	if got := soldCount(t, ts2); got != 4 {
		t.Fatalf("Sold count after recovery = %d, want 4", got)
	}
	var ready map[string]any
	if code := getJSON(t, ts2.URL+"/readyz", &ready); code != 200 {
		t.Fatalf("readyz after recovery = %d: %v", code, ready)
	}

	// A double restart replays the same suffix idempotently.
	crash(t, srv2, ts2)
	srv3, ts3 := newDurableServer(t, dir, 1000)
	if got := soldCount(t, ts3); got != 4 {
		t.Fatalf("Sold count after second recovery = %d, want 4", got)
	}
	if httpSeq(srv3) != 3 {
		t.Fatalf("seq after second recovery = %d", httpSeq(srv3))
	}
}

// TestCheckpointCompaction: once a checkpoint runs — in the background;
// crash waits for it — a restart replays only the journal suffix past
// its watermark.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 2) // checkpoint every 2 updates
	var out map[string]any
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf("insert Sale('item-%d', 'Mary')", i)
		if code := postText(t, ts.URL+"/update", body, &out); code != 200 {
			t.Fatalf("update %d status %d: %v", i, code, out)
		}
	}
	crash(t, srv, ts)
	srv2, ts2 := newDurableServer(t, dir, 2)
	if srv2.replayed != 1 { // updates 1,2 checkpointed; only 3 replays
		t.Fatalf("replayed = %d, want 1", srv2.replayed)
	}
	if httpSeq(srv2) != 3 {
		t.Fatalf("seq = %d, want 3", httpSeq(srv2))
	}
	if got := soldCount(t, ts2); got != 4 {
		t.Fatalf("Sold count = %d, want 4", got)
	}
}

// TestGracefulShutdownCheckpoints: shutdown writes a final checkpoint,
// so the successor boots with nothing to replay, and leaves wal.dwj the
// magic alone: no records, and no headroom after them.
func TestGracefulShutdownCheckpoints(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 1000)
	var out map[string]any
	if code := postText(t, ts.URL+"/update", "insert Sale('VCR', 'Paula')", &out); code != 200 {
		t.Fatalf("update status %d: %v", code, out)
	}
	srv.beginDrain()
	var ready map[string]any
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	ts.Close()
	if err := srv.shutdown(); err != nil {
		t.Fatal(err)
	}
	if wal, err := os.ReadFile(filepath.Join(dir, "wal.dwj")); err != nil || string(wal) != "DWJ4" {
		t.Fatalf("wal.dwj after a graceful stop: %q (%v), want the magic alone", wal, err)
	}
	srv2, ts2 := newDurableServer(t, dir, 1000)
	if srv2.replayed != 0 {
		t.Fatalf("replayed = %d after clean shutdown, want 0", srv2.replayed)
	}
	if httpSeq(srv2) != 1 {
		t.Fatalf("seq = %d, want 1 (from checkpoint marks)", httpSeq(srv2))
	}
	if got := soldCount(t, ts2); got != 2 {
		t.Fatalf("Sold count = %d, want 2", got)
	}
}

// TestServeStaleOnRefreshFailure: a failing refresh answers 500, flips
// the server degraded, and subsequent reads carry X-DW-Staleness until
// an update succeeds again.
func TestServeStaleOnRefreshFailure(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	_, ts := newDurableServer(t, t.TempDir(), 1000)
	var out map[string]any
	if code := postText(t, ts.URL+"/update", "insert Sale('VCR', 'Paula')", &out); code != 200 {
		t.Fatalf("seed update status %d: %v", code, out)
	}

	chaos.Arm("refresh.apply", 1, nil)
	if code := postText(t, ts.URL+"/update", "insert Sale('PC', 'Mary')", &out); code != 500 {
		t.Fatalf("injected update status %d, want 500", code)
	}
	resp, err := http.Get(ts.URL + "/query?q=Sold")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-DW-Staleness") == "" {
		t.Fatal("degraded query is missing the X-DW-Staleness header")
	}
	// The failed update changed nothing: still the seed row + VCR.
	if got := soldCount(t, ts); got != 2 {
		t.Fatalf("Sold count while degraded = %d, want 2", got)
	}

	// Recovery: the next successful update clears the degradation.
	chaos.Reset()
	if code := postText(t, ts.URL+"/update", "insert Sale('PC', 'Mary')", &out); code != 200 {
		t.Fatalf("retry status %d: %v", code, out)
	}
	resp, err = http.Get(ts.URL + "/query?q=Sold")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get("X-DW-Staleness"); h != "" {
		t.Fatalf("healthy query still carries X-DW-Staleness=%q", h)
	}
}

// TestReadyzFresh: a fresh in-memory server (no durability configured)
// is immediately ready.
func TestReadyzFresh(t *testing.T) {
	ts := newTestServer(t, "")
	var ready map[string]any
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != 200 {
		t.Fatalf("readyz = %d: %v", code, ready)
	}
	if ready["ready"] != true {
		t.Fatalf("ready = %v", ready)
	}
}

// TestCorruptJournalRefusesBoot: flipping a bit mid-journal must fail
// startup loudly instead of silently serving a wrong state.
func TestCorruptJournalRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 1000)
	var out map[string]any
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf("insert Sale('item-%d', 'Mary')", i)
		if code := postText(t, ts.URL+"/update", body, &out); code != 200 {
			t.Fatalf("update status %d", code)
		}
	}
	crash(t, srv, ts)
	corruptFile(t, filepath.Join(dir, "wal.dwj"), 20)

	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(spec, dwc.Theorem22(), serverConfig{SnapshotDir: dir}); err == nil {
		t.Fatal("server booted from a corrupt journal")
	}
}

// TestOldFormatRefusesBoot: a checkpoint and a journal written by the
// parent of format v3 (gob; the bytes under testdata/v2 come from its
// dwserve, SIGKILLed after three updates), the checkpoints written by the
// parents of formats v4 and v5 (testdata/v3 and testdata/v4, likewise;
// their journal format was still the current one) and the journal written
// by the parent of journal format v4 (testdata/v3/wal.dwj, likewise) are
// refused by name — each alone, the v2 pair together, and the v3 journal
// beside a checkpoint of this build — never read as corruption, never
// booted from empty beside, and left exactly as they were.
func TestOldFormatRefusesBoot(t *testing.T) {
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint of this build, for the old journal to sit beside.
	curDir := t.TempDir()
	curSrv, curTS := newDurableServer(t, curDir, 1)
	postUpdate(t, curTS.URL, "insert Sale('Radio', 'Paula')")
	crash(t, curSrv, curTS)
	current, err := os.ReadFile(checkpointPath(curDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version string
		files   []string
		current bool // a checkpoint of this build lies beside the files
	}{
		{"v2", []string{"state.snap", "wal.dwj"}, false}, {"v2", []string{"state.snap"}, false}, {"v2", []string{"wal.dwj"}, false},
		{"v3", []string{"state.snap"}, false}, {"v4", []string{"state.snap"}, false},
		{"v3", []string{"wal.dwj"}, false}, {"v3", []string{"wal.dwj"}, true},
	} {
		files := tc.files
		dir := t.TempDir()
		old := map[string][]byte{}
		for _, name := range files {
			if old[name], err = os.ReadFile(filepath.Join("..", "..", "testdata", tc.version, name)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), old[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if tc.current {
			old["state.snap"] = current
			if err := os.WriteFile(filepath.Join(dir, "state.snap"), current, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := newServer(spec, dwc.Theorem22(), serverConfig{SnapshotDir: dir})
		if srv != nil || err == nil || !strings.Contains(err.Error(), "written by format "+tc.version+", not readable by this build") {
			t.Fatalf("%s %v: server %v, error %v; want a refusal naming the format", tc.version, files, srv, err)
		}
		if errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, journal.ErrCorrupt) {
			t.Errorf("%s %v: an intact old file reported as corruption: %v", tc.version, files, err)
		}
		if !strings.Contains(err.Error(), filepath.Join(dir, files[0])) {
			t.Errorf("%s %v: error does not name the file: %v", tc.version, files, err)
		}
		left, _ := os.ReadDir(dir)
		if len(left) != len(old) {
			t.Errorf("%s %v: directory now holds %v", tc.version, files, left)
		}
		for name, want := range old {
			if got, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(got, want) {
				t.Errorf("%s %v: %s was modified", tc.version, files, name)
			}
		}
	}
}

// TestCorruptCheckpointRefusesBoot: state.snap is a header, a manifest and
// one section per row page, each under its own checksum. Damage to any of
// them — a flipped bit, a cut — fails startup with snapshot.ErrCorrupt
// naming the file (and, inside a section, the relation and the page); the
// server never comes up on the part that still decodes, and the file is
// left for the operator.
func TestCorruptCheckpointRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 2)
	postUpdate(t, ts.URL, "insert Sale('item-0', 'Mary')")
	postUpdate(t, ts.URL, "insert Sale('item-1', 'Mary')")
	crash(t, srv, ts)
	path := checkpointPath(dir)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	manifestEnd := 16 + int(binary.BigEndian.Uint64(good[8:16]))
	if manifestEnd >= len(good)-8 {
		t.Fatalf("a %d-byte checkpoint with %d bytes of header and manifest holds no section to damage", len(good), manifestEnd)
	}
	flip := func(pos int) []byte {
		b := bytes.Clone(good)
		b[pos] ^= 0x10
		return b
	}
	spec := mustSpec(t, testSpec)
	for name, tc := range map[string]struct {
		file  []byte
		names string
	}{
		"bit flipped in the magic":     {flip(2), "bad magic"},
		"bit flipped in the length":    {flip(15), "manifest"},
		"bit flipped in the manifest":  {flip(20), "manifest checksum"},
		"bit flipped in a section":     {flip(manifestEnd + 3), `relation "C_Emp": page 0: section checksum`},
		"bit flipped in the last byte": {flip(len(good) - 1), `relation "Sold": page 0: section checksum`},
		"cut mid-section":              {good[:len(good)-4], `relation "Sold": page 0: truncated section`},
		"cut mid-manifest":             {good[:manifestEnd-2], "truncated manifest"},
		"bytes appended":               {append(bytes.Clone(good), 0), "after the last section"},
	} {
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := newServer(spec, dwc.Theorem22(), serverConfig{SnapshotDir: dir})
		if srv != nil || !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: server %v, error %v; want snapshot.ErrCorrupt naming %s and %q", name, srv, err, path, tc.names)
		}
		if left, _ := os.ReadFile(path); !bytes.Equal(left, tc.file) {
			t.Errorf("%s: the refused file was modified", name)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if srv, _ := newDurableServer(t, dir, 1000); srv.replayed != 0 {
		t.Errorf("the undamaged checkpoint boots after replaying %d records, want 0", srv.replayed)
	}
}
