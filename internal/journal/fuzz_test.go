package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// fuzzFrames frames one Sale insert per sequence number.
func fuzzFrames(db *catalog.Database, seqs ...uint64) []byte {
	var b []byte
	for _, seq := range seqs {
		u := catalog.NewUpdate().MustInsert("Sale", db, relation.String_("TV"), relation.String_("Mary"))
		fr, err := Frame(Record{Source: "sales", Seq: seq, LSN: seq, Update: u})
		if err != nil {
			panic(err)
		}
		b = append(b, fr...)
	}
	return b
}

// FuzzJournalTail holds the journal's tail rule over arbitrary bytes
// after the magic, runs of zeros included: the records end cleanly (at
// the file's end or a header of zeros), at a torn tail — a bad frame with
// nothing but zeros after it — or in ErrCorrupt, never anything else and
// never a panic, for Replay and Open alike. What replays is what replays
// again after Open and Close, which leave the magic and those records
// alone in the file.
func FuzzJournalTail(f *testing.F) {
	db := workload.Figure1(false).DB
	two := fuzzFrames(db, 1, 2)
	f.Add(two)
	f.Add(append(slices.Clone(two), make([]byte, 64)...))
	torn := fuzzFrames(db, 3)
	f.Add(append(append(slices.Clone(two), torn[:len(torn)/2]...), make([]byte, 64)...))
	f.Add(append(append(slices.Clone(two), make([]byte, 16)...), fuzzFrames(db, 99)...))
	f.Fuzz(func(t *testing.T, tail []byte) {
		data := append(magic[:len(magic):len(magic)], tail...)
		end, _, err := scan(bytes.NewReader(data), nil, nil)
		rest := data[end:]
		zero := func(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }
		// The bad frame's claimed end, within rest; len(rest) if it claims
		// more than there is.
		stop := len(rest)
		if len(rest) >= 8 {
			stop = int(min(8+uint64(binary.BigEndian.Uint32(rest)), uint64(len(rest))))
		}
		switch {
		case err == nil:
			if len(rest) != 0 && (len(rest) < 8 || !zero(rest[:8])) {
				t.Fatalf("clean end at %d before %x, neither the file's end nor a header of zeros", end, rest[:min(8, len(rest))])
			}
		case errors.Is(err, ErrTorn):
			if !zero(rest[stop:]) {
				t.Fatalf("torn tail at %d with more than zeros after its frame", end)
			}
		case errors.Is(err, ErrCorrupt):
			if binary.BigEndian.Uint32(rest) <= maxRecord && zero(rest[stop:]) {
				t.Fatalf("corruption at %d with only zeros after its frame: %v", end, err)
			}
		default:
			t.Fatalf("scan error %v, want a clean end, ErrTorn or ErrCorrupt", err)
		}

		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() (frames [][]byte, torn bool, err error) {
			_, torn, err = Replay(path, db, func(r Record) error {
				fr, err := Frame(r)
				frames = append(frames, fr)
				return err
			})
			return frames, torn, err
		}
		before, torn1, rerr := replay()
		if rerr == nil && torn1 != errors.Is(err, ErrTorn) {
			t.Fatalf("replay torn %v, scan %v", torn1, err)
		}
		w, oerr := Open(path)
		if errors.Is(err, ErrCorrupt) {
			if !errors.Is(oerr, ErrCorrupt) {
				t.Fatalf("open of a corrupt journal: %v, want ErrCorrupt", oerr)
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, data) {
				t.Fatal("a refused journal was modified")
			}
			return
		}
		if oerr != nil {
			t.Fatal(oerr)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if now, _ := os.ReadFile(path); !bytes.Equal(now, data[:end]) {
			t.Fatalf("Open + Close left %d bytes, want the %d before the records' end", len(now), end)
		}
		after, torn2, rerr2 := replay()
		if torn2 || (rerr == nil) != (rerr2 == nil) || len(after) != len(before) {
			t.Fatalf("replay after Open + Close: %d records, torn %v, error %v; before: %d, error %v", len(after), torn2, rerr2, len(before), rerr)
		}
		for i := range before {
			if !bytes.Equal(before[i], after[i]) {
				t.Fatalf("record %d changed across Open + Close", i)
			}
		}
	})
}
