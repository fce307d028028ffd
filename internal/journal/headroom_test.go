package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fileSize stats the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// seqFrame is the frame appendSeqs writes for seq.
func seqFrame(t *testing.T, seq uint64) []byte {
	t.Helper()
	fr, err := Frame(seqRecord(t, seq))
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// openWith opens a writer on path with records 1 and 2 and returns it
// with their end.
func openWith(t *testing.T, path string) (*Writer, int64) {
	t.Helper()
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSeqs(t, w, 1, 2)
	end, err := w.Offset()
	if err != nil {
		t.Fatal(err)
	}
	return w, end
}

// writeAt writes b at off of the file at path, behind the writer's back.
func writeAt(t *testing.T, path string, b []byte, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestJournalAppendsInsideHeadroom: Open leaves the headroom past the
// magic, appends inside it change no file size, an append that outruns
// it grows the file by a headroom past the record, and Close cuts the
// file back to its records.
func TestJournalAppendsInsideHeadroom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, path)
	if size != int64(len(magic))+headroom {
		t.Fatalf("fresh journal of %d bytes, want the magic and %d of headroom", size, headroom)
	}
	appendSeqs(t, w, 1, 50)
	if got := fileSize(t, path); got != size {
		t.Fatalf("50 appends inside the headroom moved the file size from %d to %d", size, got)
	}
	db := testDB(t)
	big := Record{Source: "sales", Seq: 51, Update: saleIns(t, db, strings.Repeat("x", headroom), "Mary")}
	if err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	end, _ := w.Offset()
	if got := fileSize(t, path); got != end+headroom {
		t.Fatalf("an append past the headroom left %d bytes, want its end %d and a headroom", got, end+headroom)
	}
	appendSeqs(t, w, 52, 52)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, torn := replaySeqs(t, path); torn || len(seqs) != 52 || seqs[51] != 52 {
		t.Fatalf("replayed %d records (torn %v), want 1…52", len(seqs), torn)
	}
}

// TestJournalAtRestHasNoHeadroom: whatever the writer did — appends, a
// withdrawal, a compaction, a reset — the closed file is the magic and
// the records, its last byte the last record's.
func TestJournalAtRestHasNoHeadroom(t *testing.T) {
	for name, act := range map[string]func(*testing.T, *Writer){
		"appends":  func(t *testing.T, w *Writer) { appendSeqs(t, w, 1, 3) },
		"withdraw": func(t *testing.T, w *Writer) { appendSeqs(t, w, 1, 3); _ = w.Withdraw() },
		"compaction": func(t *testing.T, w *Writer) {
			appendSeqs(t, w, 1, 2)
			cut, _ := w.Offset()
			appendSeqs(t, w, 3, 4)
			if err := w.DropPrefix(cut); err != nil {
				t.Fatal(err)
			}
		},
		"reset": func(t *testing.T, w *Writer) {
			appendSeqs(t, w, 1, 2)
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
		},
		"nothing": func(*testing.T, *Writer) {},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			w, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			act(t, w)
			want := records(t, path)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
				t.Fatalf("closed journal of %d bytes, want its %d bytes of records alone", len(got), len(want))
			}
		})
	}
}

// TestJournalTornInHeadroom: a crash mid-write leaves a frame whose later
// bytes are still the headroom's zeros — its payload cut anywhere, or its
// header alone. Replay stops before it as a torn tail, not ErrCorrupt;
// Open zeroes it and the next append takes its place.
func TestJournalTornInHeadroom(t *testing.T) {
	third := seqFrame(t, 3)
	lastByte := len(bytes.TrimRight(third, "\x00")) - 1 // the frame's zero tail is no cut
	for _, cut := range []int{4, 8, 9, len(third) / 2, lastByte} {
		path := filepath.Join(t.TempDir(), "wal")
		w, end := openWith(t, path)
		writeAt(t, path, third[:cut], end)
		if seqs, torn := replaySeqs(t, path); !torn || !slices.Equal(seqs, []uint64{1, 2}) {
			t.Fatalf("frame cut at %d/%d in the headroom: replayed %v (torn %v), want [1 2] torn", cut, len(third), seqs, torn)
		}
		w.Close()
		w, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := records(t, path); int64(len(got)) != end {
			t.Fatalf("Open after a frame torn at %d: records end at %d, want %d", cut, len(got), end)
		}
		appendSeqs(t, w, 4, 4)
		w.Close()
		if seqs, torn := replaySeqs(t, path); torn || !slices.Equal(seqs, []uint64{1, 2, 4}) {
			t.Fatalf("after reopen: replayed %v (torn %v), want [1 2 4]", seqs, torn)
		}
	}
}

// TestJournalStaleBytesPastEnd: bytes a crash left past the records'
// end, behind a header of zeros — a whole frame of seq 99 where the next
// append's successor would start, or garbage — are not records: replay
// ends at the zeros, Open zeroes them, and after the next append replay
// still never reads them.
func TestJournalStaleBytesPastEnd(t *testing.T) {
	third := seqFrame(t, 3)
	for name, stale := range map[string][]byte{
		"frame":   seqFrame(t, 99),
		"garbage": []byte("\x00\x00\x00\x10not a record at all"),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			w, end := openWith(t, path)
			w.Close()
			writeAt(t, path, stale, end+int64(len(third)))
			if seqs, torn := replaySeqs(t, path); torn || !slices.Equal(seqs, []uint64{1, 2}) {
				t.Fatalf("stale bytes past the end: replayed %v (torn %v), want [1 2]", seqs, torn)
			}
			w, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := records(t, path); int64(len(got)) != end {
				t.Fatalf("Open kept %d bytes of records, want %d", len(got), end)
			}
			appendSeqs(t, w, 3, 3)
			if seqs, torn := replaySeqs(t, path); torn || !slices.Equal(seqs, []uint64{1, 2, 3}) {
				t.Fatalf("after the next append: replayed %v (torn %v), want [1 2 3]", seqs, torn)
			}
			w.Close()
			if seqs, _ := replaySeqs(t, path); !slices.Equal(seqs, []uint64{1, 2, 3}) {
				t.Fatalf("at rest: replayed %v, want [1 2 3]", seqs)
			}
		})
	}
}

// TestJournalCorruptBeforeValidFrame: a record that fails its checksum
// with a valid frame after it is corruption, open or at rest, for Replay
// and Open alike — the tail rule forgives a bad frame only when zeros
// alone follow it.
func TestJournalCorruptBeforeValidFrame(t *testing.T) {
	for _, closed := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "wal")
		w, end := openWith(t, path)
		appendSeqs(t, w, 3, 3)
		if closed {
			w.Close()
		}
		writeAt(t, path, []byte{0xff}, end-3) // inside record 2's payload
		if _, _, err := Replay(path, testDB(t), func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("closed %v: replay error %v, want ErrCorrupt", closed, err)
		}
		if w2, err := Open(path); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				w2.Close()
			}
			t.Fatalf("closed %v: open error %v, want ErrCorrupt", closed, err)
		}
		if !closed {
			w.Close()
		}
	}
}
