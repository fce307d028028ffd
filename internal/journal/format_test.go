package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
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
// then the update as two name-sorted sets of relations, each relation its
// header and its one page's section.
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
		2, 4, 'i', 't', 'e', 'm', 5, 'c', 'l', 'e', 'r', 'k', 1, // its attributes, one row
		4, 1, 2, 'T', 'V', // a string column: one string, codes of 0 bits
		4, 1, 4, 'M', 'a', 'r', 'y',
		1, 3, 'E', 'm', 'p', // deletes: one relation, "Emp"
		2, 5, 'c', 'l', 'e', 'r', 'k', 3, 'a', 'g', 'e', 1,
		4, 1, 4, 'M', 'a', 'r', 'y',
		2, 46, 0, // an int column: minimum 23 (zig-zag 46), offsets of 0 bits
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
		"column missing":      record(2, 4, 'i', 't', 'e', 'm', 5, 'c', 'l', 'e', 'r', 'k', 1, 4, 1, 1, 'x'),
		"rows wrap the pages": record(1, 4, 'i', 't', 'e', 'm', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 4, 1, 1, 'x'),
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
	_, err := NewStreamReader(bytes.NewReader(frame(record(1, 4, 'i', 't', 'e', 'm', 1, 4, 1, 1, 'x'))), db).Next()
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

// TestRefusesFormatV2 opens journals the parents of the later formats
// wrote (v2: gob records behind magic "DWJL"; v3: relations as sorted
// values behind "DWJ3"): refused by name, not as corruption, and left as
// they were.
func TestRefusesFormatV2(t *testing.T) {
	for _, v := range []string{"v2", "v3"} {
		old, err := os.ReadFile(filepath.Join("..", "..", "testdata", v, "wal.dwj"))
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
			if !errors.Is(err, ErrOldFormat) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "written by format "+v+", not readable by this build") {
				t.Errorf("%s: error %v, want ErrOldFormat naming the format", v, err)
			}
		}
		if now, _ := os.ReadFile(path); !bytes.Equal(now, old) {
			t.Errorf("%s: the refused journal was modified", v)
		}
	}
}

// TestReframeIsIdentity: a follower re-frames the records it decodes, so
// for any update Frame ∘ decode ∘ Frame is Frame, byte for byte — rows in
// the order they were stored, whatever the order of their values.
func TestReframeIsIdentity(t *testing.T) {
	db := testDB(t)
	rng := rand.New(rand.NewSource(34))
	pool := []relation.Value{
		relation.Null(), relation.String_("Mary"), relation.String_("Paula"), relation.String_(""),
		relation.Int(23), relation.Int(-7), relation.Int(1 << 40), relation.Float(2.5), relation.Bool(true),
	}
	for i := range 500 {
		u := catalog.NewUpdate()
		for _, name := range []string{"Sale", "Emp"} {
			sc, _ := db.Schema(name)
			for range 1 + rng.Intn(3) {
				row := make(relation.Tuple, len(sc.AttrNames()))
				for c := range row {
					row[c] = pool[rng.Intn(len(pool))]
				}
				schedule := u.Insert
				if rng.Intn(2) == 0 {
					schedule = u.Delete
				}
				if err := schedule(name, db, row); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := Frame(Record{Source: "s", Seq: uint64(i), LSN: uint64(i), Update: u})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewStreamReader(bytes.NewReader(want), db).Next()
		if err != nil {
			t.Fatalf("update %v: %v", u, err)
		}
		if got, err := Frame(rec); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("update %v re-frames as\n%x\nnot\n%x (error %v)", u, got, want, err)
		}
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
