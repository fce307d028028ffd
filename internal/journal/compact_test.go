package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dwcomplement/internal/chaos"
	"dwcomplement/internal/testmain"
)

func TestMain(m *testing.M) { testmain.Run(m) }

// appendSeqs appends one record per sequence number in [from, to].
func appendSeqs(t *testing.T, w *Writer, from, to uint64) {
	t.Helper()
	db := testDB(t)
	for i := from; i <= to; i++ {
		if err := w.Append(Record{Source: "sales", Seq: i, Update: saleIns(t, db, fmt.Sprintf("item-%d", i), "Mary")}); err != nil {
			t.Fatal(err)
		}
	}
}

// replaySeqs returns the sequence numbers in the journal at path.
func replaySeqs(t *testing.T, path string) (seqs []uint64, torn bool) {
	t.Helper()
	_, torn, err := Replay(path, testDB(t), func(r Record) error { seqs = append(seqs, r.Seq); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return seqs, torn
}

// TestDropPrefixKeepsSuffix: the records past the offset survive byte for
// byte behind the magic, later appends follow them, and a reopened
// journal continues from the compacted file.
func TestDropPrefixKeepsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, 1, 3)
	cut, err := w.Offset()
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, 4, 5)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DropPrefix(cut); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), magic[:]...), before[cut:]...); !bytes.Equal(after, want) {
		t.Fatalf("compacted journal is %d bytes, want magic + the %d-byte suffix unchanged", len(after), len(before)-int(cut))
	}
	if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	appendSeqs(t, w, 6, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w2, 7, 7)
	w2.Close()
	if seqs, torn := replaySeqs(t, path); torn || fmt.Sprint(seqs) != "[4 5 6 7]" {
		t.Fatalf("after compaction: seqs=%v torn=%v, want [4 5 6 7]", seqs, torn)
	}
}

// TestDropPrefixEmptySuffixIsReset: dropping everything leaves what Reset
// leaves, and offsets outside the file are refused without touching it.
func TestDropPrefixEmptySuffixIsReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendSeqs(t, w, 1, 2)
	end, err := w.Offset()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int64{0, int64(len(magic)) - 1, end + 1} {
		if err := w.DropPrefix(bad); err == nil {
			t.Fatalf("DropPrefix(%d) accepted an offset outside [%d, %d]", bad, len(magic), end)
		}
	}
	if seqs, _ := replaySeqs(t, path); len(seqs) != 2 {
		t.Fatalf("refused offsets changed the journal: %v", seqs)
	}
	if err := w.DropPrefix(end); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, magic[:]) {
		t.Fatalf("empty suffix left %d bytes, want the magic alone", len(data))
	}
	appendSeqs(t, w, 3, 3)
	if seqs, torn := replaySeqs(t, path); torn || fmt.Sprint(seqs) != "[3]" {
		t.Fatalf("after empty-suffix drop: seqs=%v torn=%v", seqs, torn)
	}
}

// TestDropPrefixTornTail: a compacted journal tolerates a torn tail as
// any journal does — replay stops before it, Open truncates it.
func TestDropPrefixTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, 1, 2)
	cut, _ := w.Offset()
	appendSeqs(t, w, 3, 4)
	if err := w.DropPrefix(cut); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if seqs, torn := replaySeqs(t, path); !torn || fmt.Sprint(seqs) != "[3]" {
		t.Fatalf("torn compacted journal: seqs=%v torn=%v, want [3] true", seqs, torn)
	}
	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w2, 5, 5)
	w2.Close()
	if seqs, torn := replaySeqs(t, path); torn || fmt.Sprint(seqs) != "[3 5]" {
		t.Fatalf("after reopen: seqs=%v torn=%v, want [3 5]", seqs, torn)
	}
}

// TestDropPrefixCrashBeforeRename: a failure between the temp file's
// fsync and the rename leaves the full journal in place and usable, and
// Open clears a temp file a real crash would have left.
func TestDropPrefixCrashBeforeRename(t *testing.T) {
	defer chaos.Reset()
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, 1, 2)
	cut, _ := w.Offset()
	appendSeqs(t, w, 3, 3)
	boom := errors.New("injected crash")
	chaos.Arm("journal.compact", 1, boom)
	if err := w.DropPrefix(cut); !errors.Is(err, boom) {
		t.Fatalf("armed compaction returned %v", err)
	}
	chaos.Reset()
	appendSeqs(t, w, 4, 4)
	w.Close()
	if seqs, torn := replaySeqs(t, path); torn || fmt.Sprint(seqs) != "[1 2 3 4]" {
		t.Fatalf("after failed compaction: seqs=%v torn=%v", seqs, torn)
	}
	if err := os.WriteFile(path+compactSuffix, []byte("half a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
		t.Fatalf("Open kept the stale temp file: %v", err)
	}
}

// TestConcurrentAppendAndDropPrefix races an appender against repeated
// compactions: what is left must be a gap-free, duplicate-free run of
// sequence numbers ending at the last append, and must hold every record
// appended after the last offset that was dropped.
func TestConcurrentAppendAndDropPrefix(t *testing.T) {
	const total = 300
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	// cutSeq is the sequence of the last record before the latest offset
	// handed to the compactor; the appender owns the (append, Offset) pair.
	var mu sync.Mutex
	var cutOff int64
	var cutSeq, droppedThrough uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			off, seq := cutOff, cutSeq
			mu.Unlock()
			if off == 0 {
				continue
			}
			if err := w.DropPrefix(off); err != nil {
				t.Errorf("DropPrefix(%d): %v", off, err)
				return
			}
			droppedThrough = seq
			// Only now may the appender take the next offset: one taken
			// before the swap would be void after it.
			mu.Lock()
			cutOff = 0
			mu.Unlock()
		}
	}()
	for i := uint64(1); i <= total; i++ {
		// mu only guards the hand-over of offsets; the compactor does not
		// hold it across DropPrefix, so appends do race the swap.
		mu.Lock()
		if err := w.Append(Record{Source: "sales", Seq: i, Update: saleIns(t, db, "TV", "Mary")}); err != nil {
			mu.Unlock()
			t.Fatal(err)
		}
		if i%7 == 0 && cutOff == 0 {
			off, err := w.Offset()
			if err != nil {
				mu.Unlock()
				t.Fatal(err)
			}
			cutOff, cutSeq = off, i
		}
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	w.Close()
	seqs, torn := replaySeqs(t, path)
	if torn || len(seqs) == 0 {
		t.Fatalf("torn=%v, %d records", torn, len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("gap or duplicate at %d: %v", i, seqs)
		}
	}
	if seqs[len(seqs)-1] != total {
		t.Fatalf("last record %d, want %d", seqs[len(seqs)-1], total)
	}
	if seqs[0] != droppedThrough+1 {
		t.Fatalf("first surviving record %d, want %d (everything past the last dropped offset)", seqs[0], droppedThrough+1)
	}
	if droppedThrough == 0 {
		t.Fatal("no compaction ran during the appends")
	}
}
