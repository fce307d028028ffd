package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dwcomplement/internal/chaos"
	"dwcomplement/internal/trace"
)

// lockedBuffer is a log sink the test reads while handlers may still write.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// countOnly arms the named points to count their traversals, never to fail.
func countOnly(points ...string) {
	for _, p := range points {
		chaos.Arm(p, 0, errors.New("count only"))
	}
}

// versionStamp reads X-DW-Version from a read route.
func versionStamp(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/relations")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.Header.Get("X-DW-Version")
}

// readWAL returns the journal in a -snapshot-dir up to its records' end:
// the magic and the frames before the first header of zeros. Only zeros
// may follow, the headroom of an open journal.
func readWAL(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "wal.dwj"))
	if err != nil {
		t.Fatal(err)
	}
	end := 4 // the magic
	for end+8 <= len(b) && bytes.Count(b[end:end+8], []byte{0}) != 8 {
		end += 8 + int(binary.BigEndian.Uint32(b[end:]))
	}
	if end > len(b) || bytes.Count(b[end:], []byte{0}) != len(b)-end {
		t.Fatalf("wal.dwj of %d bytes: records end at %d, and more than zeros follow", len(b), end)
	}
	return b[:end]
}

// TestCommitWithdrawsFailedRefresh: a refresh that fails — injected at
// refresh.apply, or a request canceled before its deltas apply — is not
// acknowledged, and leaves the journal's records byte for byte, the
// published version and the replication log's tip as they were: its
// record, written before the refresh, is withdrawn and never flushed.
// Every withdrawal is counted and logged with its request id. The
// retried update commits at the same coordinates, and a restart replays
// exactly the acks. Every request is traced, so each commit takes
// chaos's lock and the trace package's (tracer, store, spans) under the
// server's, nestings the rank check holds to the table in this test
// binary.
func TestCommitWithdrawsFailedRefresh(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 1000)
	var logs lockedBuffer
	srv.log = slog.New(slog.NewTextHandler(&logs, nil))
	srv.tracer = trace.New(trace.Config{Rate: 1})
	postUpdate(t, ts.URL, "insert Sale('VCR', 'Paula')")
	wal, stamp, tip := readWAL(t, dir), versionStamp(t, ts), srv.rlog.Tip()

	countOnly("journal.append", "journal.sync")
	chaos.Arm("refresh.apply", 1, nil)
	if code, err := post(ts.URL, "insert Sale('PC', 'Mary')"); err != nil || code/100 == 2 {
		t.Fatalf("update with a failing refresh: status %d, err %v; want a failure", code, err)
	}
	if got := readWAL(t, dir); !bytes.Equal(got, wal) {
		t.Errorf("journal after the failed refresh: %d bytes of records, want the %d from before", len(got), len(wal))
	}
	// A canceled request: 499, "unchanged".
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	srv.handler().ServeHTTP(rec, httptest.NewRequest("POST", "/update", strings.NewReader("insert Sale('PC', 'Mary')")).WithContext(ctx))
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled update: status %d, want %d (body %s)", rec.Code, statusClientClosedRequest, rec.Body)
	}
	written, flushed := chaos.Hits("journal.append"), chaos.Hits("journal.sync")
	if written == 0 || flushed != 0 {
		t.Errorf("the failed updates wrote %d records and flushed %d, want at least the injected failure's and none", written, flushed)
	}
	if got := readWAL(t, dir); !bytes.Equal(got, wal) {
		t.Errorf("journal after the failed updates: %d bytes of records, want the %d from before", len(got), len(wal))
	}
	if got := versionStamp(t, ts); got != stamp {
		t.Errorf("X-DW-Version %q after the failed updates, want %q", got, stamp)
	}
	if got := srv.rlog.Tip(); got != tip {
		t.Errorf("replication log tip %d after the failed updates, want %d", got, tip)
	}
	if _, body := getText(t, ts.URL+"/metrics"); !strings.Contains(body, fmt.Sprintf("dw_journal_withdrawn_total %d\n", written)) {
		t.Errorf("metrics lack dw_journal_withdrawn_total %d, the records written:\n%s", written, grepLines(body, "dw_journal_withdrawn"))
	}
	withdrawn := regexp.MustCompile(`level=WARN msg="journal record withdrawn: its commit failed" id=[0-9a-f]{16} source=http seq=2`)
	if n := len(withdrawn.FindAllString(logs.String(), -1)); uint64(n) != written {
		t.Errorf("%d withdrawal log lines with a request id, want %d:\n%s", n, written, logs.String())
	}

	chaos.Reset()
	postUpdate(t, ts.URL, "insert Sale('PC', 'Mary')")
	if _, lsn, seq := coords(srv); lsn != 2 || seq != 2 {
		t.Fatalf("retried update committed at lsn %d seq %d, want 2/2", lsn, seq)
	}
	crash(t, srv, ts)
	oracle := oracleAfter(t, srv, parseOps(t, "insert Sale('VCR', 'Paula')", "insert Sale('PC', 'Mary')"))
	srv2, _ := newDurableServer(t, dir, 1000)
	if srv2.replayed != 2 || srv2.withdrawnTail != nil {
		t.Fatalf("restart replayed %d records (tail withdrawn: %v), want 2 and none", srv2.replayed, srv2.withdrawnTail)
	}
	assertOracle(t, srv2, oracle, "restart")
}

// TestWithdrawCrashRecovers: a crash between a durable append and its
// withdrawal — the chaos point journal.withdraw — leaves the failed
// update's record as the journal's last. Recovery replays it, finds its
// refresh failing again, and finishes the withdrawal: the tail is cut,
// the server is not wedged, the coordinates do not advance past the acks,
// and exactly the acknowledged records are replayed, twice over.
func TestWithdrawCrashRecovers(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 1000) // no checkpoint: every ack stays in the journal
	acked := []string{"insert Sale('a', 'Mary')", "insert Sale('b', 'Paula')", "delete Sale('a', 'Mary')"}
	countOnly("refresh.apply")
	for _, op := range acked {
		postUpdate(t, ts.URL, op)
	}
	perRefresh := chaos.Hits("refresh.apply") / uint64(len(acked))
	ackedWAL := readWAL(t, dir)

	chaos.Arm("refresh.apply", 1, nil)
	chaos.Arm("journal.withdraw", 1, nil)
	if code, err := post(ts.URL, "insert Sale('never', 'Mary')"); err != nil || code != http.StatusInternalServerError {
		t.Fatalf("update whose withdrawal crashes: status %d, err %v; want 500", code, err)
	}
	if !chaos.Fired("journal.withdraw") {
		t.Fatal("the withdrawal never reached its crash point")
	}
	if got := readWAL(t, dir); len(got) <= len(ackedWAL) || !bytes.HasPrefix(got, ackedWAL) {
		t.Fatalf("journal after the crashed withdrawal: %d bytes, want the %d acked ones and the failed record after them", len(got), len(ackedWAL))
	}
	crash(t, srv, ts)
	chaos.Reset()

	oracle := oracleAfter(t, srv, parseOps(t, acked...))
	for boot := 1; boot <= 2; boot++ {
		if boot == 1 {
			// The failed update's refresh fails again on replay, after the
			// acknowledged records' refreshes.
			chaos.Arm("refresh.apply", uint64(len(acked))*perRefresh+1, nil)
		}
		srv2, ts2 := newDurableServer(t, dir, 1000)
		if boot == 1 && (!chaos.Fired("refresh.apply") || srv2.withdrawnTail == nil) {
			t.Fatalf("boot 1: the tail's refresh did not fail (withdrawn: %v)", srv2.withdrawnTail)
		}
		chaos.Reset()
		if srv2.replayed != len(acked) || srv2.wedgedErr != nil {
			t.Fatalf("boot %d: replayed %d records (wedged: %v), want %d", boot, srv2.replayed, srv2.wedgedErr, len(acked))
		}
		if _, lsn, seq := coords(srv2); lsn != uint64(len(acked)) || seq != uint64(len(acked)) {
			t.Fatalf("boot %d: lsn %d seq %d, want %d/%d", boot, lsn, seq, len(acked), len(acked))
		}
		var ready map[string]any
		if code := getJSON(t, ts2.URL+"/readyz", &ready); code != http.StatusOK {
			t.Fatalf("boot %d: readyz %d: %v", boot, code, ready)
		}
		if got := readWAL(t, dir); !bytes.Equal(got, ackedWAL) {
			t.Fatalf("boot %d: journal holds %d bytes, want the %d acked ones", boot, len(got), len(ackedWAL))
		}
		assertOracle(t, srv2, oracle, fmt.Sprintf("boot %d", boot))
		crash(t, srv2, ts2)
	}
}

// TestJournalReplayFailureWithSuccessorWedges: the tail rule is for the
// last record only. A record that fails on replay with a record after it
// was acknowledged — a withdrawal that failed refuses later appends — so
// the server comes up wedged, as before, and keeps the journal.
func TestJournalReplayFailureWithSuccessorWedges(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, 1000)
	postUpdate(t, ts.URL, "insert Sale('a', 'Mary')")
	postUpdate(t, ts.URL, "insert Sale('b', 'Mary')")
	wal := readWAL(t, dir)
	crash(t, srv, ts)

	chaos.Arm("refresh.apply", 1, nil) // the first record's replay fails
	srv2, ts2 := newDurableServer(t, dir, 1000)
	if srv2.wedgedErr == nil || srv2.withdrawnTail != nil || srv2.replayed != 1 {
		t.Fatalf("wedged %v, tail withdrawn %v, replayed %d; want wedged, no withdrawal, 1 replayed", srv2.wedgedErr, srv2.withdrawnTail, srv2.replayed)
	}
	if _, lsn, _ := coords(srv2); lsn != 2 {
		t.Fatalf("lsn %d, want 2: both records were acknowledged", lsn)
	}
	var ready map[string]any
	if code := getJSON(t, ts2.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d, want 503 while wedged: %v", code, ready)
	}
	if got := readWAL(t, dir); !bytes.Equal(got, wal) {
		t.Fatalf("a wedged boot changed the journal: %d bytes, want %d", len(got), len(wal))
	}
}
