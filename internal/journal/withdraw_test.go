package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dwcomplement/internal/chaos"
)

// appendOne appends the record of sequence seq and returns the file's bytes
// before it.
func appendOne(t *testing.T, w *Writer, path string, seq uint64) []byte {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, seq, seq)
	return before
}

// TestJournalWithdrawRestoresFile: a withdraw takes the last append back
// byte for byte, a second one has nothing left to take, and the journal
// appends and replays on as if the record had never been written. After
// Open, the file's last record is the one a Withdraw removes.
func TestJournalWithdrawRestoresFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, 1, 2)
	before := appendOne(t, w, path, 3)
	for i := 0; i < 2; i++ {
		if err := w.Withdraw(); err != nil {
			t.Fatalf("withdraw %d: %v", i+1, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
			t.Fatalf("withdraw %d left %d bytes, want the %d from before the append", i+1, len(got), len(before))
		}
	}
	appendSeqs(t, w, 3, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, torn := replaySeqs(t, path); torn || !slices.Equal(seqs, []uint64{1, 2, 3, 4}) {
		t.Fatalf("replayed %v (torn %v), want [1 2 3 4]", seqs, torn)
	}

	w, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Withdraw(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := replaySeqs(t, path); !slices.Equal(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("after a withdraw on a reopened journal: %v, want [1 2 3]", seqs)
	}
}

// TestJournalWithdrawAfterDropPrefix: a checkpoint's compaction between
// an append and its withdrawal moves the record to a new file at a new
// offset; the withdraw still removes exactly that record. A compaction
// that dropped the record leaves nothing to withdraw.
func TestJournalWithdrawAfterDropPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendSeqs(t, w, 1, 2)
	cut, err := w.Offset()
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, 3, 4)
	appendSeqs(t, w, 5, 5) // the record a failed commit withdraws
	if err := w.DropPrefix(cut); err != nil {
		t.Fatal(err)
	}
	if err := w.Withdraw(); err != nil {
		t.Fatal(err)
	}
	if seqs, torn := replaySeqs(t, path); torn || !slices.Equal(seqs, []uint64{3, 4}) {
		t.Fatalf("replayed %v (torn %v), want [3 4]", seqs, torn)
	}

	appendSeqs(t, w, 5, 5)
	end, err := w.Offset()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DropPrefix(end); err != nil {
		t.Fatal(err)
	}
	if err := w.Withdraw(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := replaySeqs(t, path); len(seqs) != 0 {
		t.Fatalf("replayed %v after a compaction to empty, want nothing", seqs)
	}
}

// TestJournalWithdrawFailureRefusesAppends: a withdraw that fails leaves
// the record in the file and refuses every later append, so the record
// stays the journal's last; a writer reopened on the file appends again.
func TestJournalWithdrawFailureRefusesAppends(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, 1, 2)
	boom := errors.New("injected crash")
	chaos.Arm("journal.withdraw", 1, boom)
	if err := w.Withdraw(); !errors.Is(err, boom) {
		t.Fatalf("withdraw: %v, want the injected error", err)
	}
	db := testDB(t)
	if err := w.Append(Record{Source: "sales", Seq: 3, Update: saleIns(t, db, "x", "Mary")}); !errors.Is(err, boom) {
		t.Fatalf("append after a failed withdraw: %v, want a refusal naming it", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, torn := replaySeqs(t, path); torn || !slices.Equal(seqs, []uint64{1, 2}) {
		t.Fatalf("replayed %v (torn %v), want [1 2]", seqs, torn)
	}
	w, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendSeqs(t, w, 3, 3)
}

// TestJournalWithdrawConcurrentDropPrefix runs appends, acks and
// withdrawals beside a compactor that cuts, as a checkpointer does, at
// the offset of an acknowledged record and drops the prefix while later
// records are appended and withdrawn: every withdrawal removes exactly
// its own record, so the journal ends as a suffix of the acknowledged
// records. Run with -race.
func TestJournalWithdrawConcurrentDropPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ready, cuts, stop, done := make(chan struct{}), make(chan int64), make(chan struct{}), make(chan struct{})
	compactions := 0
	var compactErr error
	go func() {
		defer close(done)
		for {
			select {
			case ready <- struct{}{}:
			case <-stop:
				return
			}
			if compactErr = w.DropPrefix(<-cuts); compactErr != nil {
				<-stop
				return
			}
			compactions++
		}
	}()
	var acked []uint64
	for seq := uint64(1); seq <= 300; seq++ {
		appendSeqs(t, w, seq, seq)
		if seq%3 == 0 {
			if err := w.Withdraw(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		acked = append(acked, seq)
		select {
		case <-ready: // no compaction in flight: cut at this ack
			off, err := w.Offset()
			if err != nil {
				t.Fatal(err)
			}
			cuts <- off
		default:
		}
	}
	close(stop)
	<-done
	if compactErr != nil {
		t.Fatal(compactErr)
	}
	appendSeqs(t, w, 301, 301) // so that no compaction covers the whole journal
	acked = append(acked, 301)
	seqs, torn := replaySeqs(t, path)
	if torn || len(seqs) == 0 || !slices.Equal(seqs, acked[len(acked)-len(seqs):]) {
		t.Fatalf("journal holds %v (torn %v), want a non-empty suffix of the %d acknowledged records", seqs, torn, len(acked))
	}
	if compactions == 0 {
		t.Fatal("no compaction ran beside the appends")
	}
}
