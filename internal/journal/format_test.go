package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
)

// frame puts a length + CRC frame that vouches for payload around it.
func frame(payload []byte) []byte {
	b := append(make([]byte, 8), payload...)
	binary.BigEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return b
}

// TestRecordLayout spells one record out: the frame, the header fields,
// then the update as two name-sorted sets of relations.
func TestRecordLayout(t *testing.T) {
	db := testDB(t)
	u := saleIns(t, db, "TV", "Mary").MustDelete("Emp", db, relation.String_("Mary"), relation.Int(23))
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, Record{Source: "http", Seq: 5, Epoch: 1, LSN: 300, Update: u}); err != nil {
		t.Fatal(err)
	}
	payload := []byte{
		4, 'h', 't', 't', 'p', 5, 1, 0xac, 0x02, // source, seq, epoch, lsn (uvarints)
		1, 4, 'S', 'a', 'l', 'e', // inserts: one relation, "Sale"
		2, 4, 'i', 't', 'e', 'm', 5, 'c', 'l', 'e', 'r', 'k', // its attributes
		1, 4, 2, 'T', 'V', 4, 4, 'M', 'a', 'r', 'y', // one row of two strings
		1, 3, 'E', 'm', 'p', // deletes: one relation, "Emp"
		2, 5, 'c', 'l', 'e', 'r', 'k', 3, 'a', 'g', 'e',
		1, 4, 4, 'M', 'a', 'r', 'y', 2, 46, // string "Mary", int 23 (zig-zag 46)
	}
	if want := frame(payload); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("record encodes as\n%v\nwant\n%v", buf.Bytes(), want)
	}
	rec, err := NewStreamReader(&buf, db).Next()
	if err != nil || rec.Source != "http" || rec.Seq != 5 || rec.Epoch != 1 || rec.LSN != 300 || rec.Update.String() != u.String() {
		t.Fatalf("decoded %+v (update %v), error %v", rec, rec.Update, err)
	}
}

// TestHostileRecordsAreCorrupt: a frame whose checksum holds around bytes
// that are not a record. The three relation shapes panicked the parent's
// follower; all are a corrupt batch now, which it re-fetches.
func TestHostileRecordsAreCorrupt(t *testing.T) {
	db := testDB(t)
	record := func(ins ...byte) []byte {
		return append(append([]byte{1, 's', 1, 0, 0, 1, 4, 'S', 'a', 'l', 'e'}, ins...), 0)
	}
	for name, payload := range map[string][]byte{
		"duplicate attribute": record(2, 4, 'i', 't', 'e', 'm', 4, 'i', 't', 'e', 'm', 0),
		"empty attribute":     record(2, 4, 'i', 't', 'e', 'm', 0, 0),
		"short row":           record(2, 4, 'i', 't', 'e', 'm', 5, 'c', 'l', 'e', 'r', 'k', 1, 4, 1, 'x'),
		"trailing bytes":      append(record(0, 0), 0),
		"no update":           {1, 's', 1, 0, 0},
		"empty":               {},
	} {
		rec, err := NewStreamReader(bytes.NewReader(frame(payload)), db).Next()
		if !errors.Is(err, ErrCorrupt) || !errors.Is(err, relation.ErrEncoding) || rec.Update != nil {
			t.Errorf("%s: record %+v, error %v; want ErrCorrupt wrapping relation.ErrEncoding", name, rec, err)
		}
	}
	// An attribute the schema lacks is a well-formed record the database
	// refuses: an error, but not corruption.
	_, err := NewStreamReader(bytes.NewReader(frame(record(1, 4, 'i', 't', 'e', 'm', 1, 4, 1, 'x'))), db).Next()
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("relation missing an attribute: error %v", err)
	}
}

// TestEveryPrefixOfARecordIsTorn: a cut anywhere in a frame is the torn
// signature, and a cut anywhere in a payload behind a frame that vouches
// for it is corruption — never a record, never a panic.
func TestEveryPrefixOfARecordIsTorn(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, Record{Source: "sales", Seq: 9, LSN: 4, Update: saleIns(t, db, "TV", "Mary")}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := NewStreamReader(bytes.NewReader(nil), db).Next(); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
	for n := 1; n < len(data); n++ {
		if _, err := NewStreamReader(bytes.NewReader(data[:n]), db).Next(); !errors.Is(err, ErrTorn) {
			t.Fatalf("frame cut at %d/%d: %v", n, len(data), err)
		}
	}
	payload := data[8:]
	for n := range len(payload) {
		if _, err := NewStreamReader(bytes.NewReader(frame(payload[:n])), db).Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("payload cut at %d/%d: %v", n, len(payload), err)
		}
	}
}

// TestFrameLengthIsAClaim: a prefix announcing the largest record in front
// of a few bytes is a torn record, not a 256 MiB allocation.
func TestFrameLengthIsAClaim(t *testing.T) {
	b := frame([]byte("a few bytes"))
	binary.BigEndian.PutUint32(b[0:4], maxRecord)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err := NewStreamReader(bytes.NewReader(b), testDB(t)).Next()
	runtime.ReadMemStats(&ms)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("error %v, want ErrTorn", err)
	}
	if got := ms.TotalAlloc - before; got > 256<<10 {
		t.Errorf("%d bytes allocated for a %d-byte input", got, len(b))
	}
}

// TestRefusesFormatV2 opens a journal the parent of this format wrote
// (gob records behind magic "DWJL"): refused by name, not as corruption,
// and left as it was.
func TestRefusesFormatV2(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "..", "testdata", "v2", "wal.dwj"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.dwj")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, rerr := Replay(path, testDB(t), func(Record) error { return nil })
	_, oerr := Open(path)
	for _, err := range []error{rerr, oerr} {
		if !errors.Is(err, ErrOldFormat) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format v2") {
			t.Errorf("error %v, want ErrOldFormat naming the format", err)
		}
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, old) {
		t.Error("the refused journal was modified")
	}
}

// TestUpdateCodecSkipsEmptySets: relations an update touched without
// changing leave no bytes, so they cannot differ between two encodings
// of the same update.
func TestUpdateCodecSkipsEmptySets(t *testing.T) {
	db := testDB(t)
	if got := AppendUpdate(nil, catalog.NewUpdate()); !bytes.Equal(got, []byte{0, 0}) {
		t.Errorf("empty update encodes as %v", got)
	}
	u, err := DecodeUpdate([]byte{0, 0}, db)
	if err != nil || !u.IsEmpty() {
		t.Errorf("decoded %v, error %v", u, err)
	}
}
