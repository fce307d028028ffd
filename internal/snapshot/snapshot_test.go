package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

func sampleState(t *testing.T) map[string]*relation.Relation {
	t.Helper()
	r := relation.New("a", "b", "c", "d", "e")
	r.InsertValues(relation.Int(1), relation.Float(2.5), relation.String_("x|y'z"), relation.Bool(true), relation.Null())
	r.InsertValues(relation.Int(-9), relation.Float(0), relation.String_(""), relation.Bool(false), relation.Int(7))
	empty := relation.New("q")
	return map[string]*relation.Relation{"R": r, "Empty": empty}
}

func TestRoundTrip(t *testing.T) {
	ms := sampleState(t)
	var buf bytes.Buffer
	if err := Save(&buf, ms); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("relations = %d", len(got))
	}
	for name, want := range ms {
		if !got[name].Equal(want) {
			t.Errorf("%s differs:\ngot  %v\nwant %v", name, got[name], want)
		}
	}
	// Attribute order survives too.
	if strings.Join(got["R"].Attrs(), ",") != "a,b,c,d,e" {
		t.Errorf("attribute order lost: %v", got["R"].Attrs())
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	ms := sampleState(t)
	if err := SaveFile(path, ms); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got["R"].Equal(ms["R"]) {
		t.Error("file round trip lost data")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a snapshot")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage accepted or mistyped error: %v", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleState(t)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 15, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d accepted or mistyped error: %v", cut, err)
		}
	}
	// And through the file path, as a crashed write would leave it.
	path := filepath.Join(t.TempDir(), "trunc.snap")
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated file accepted or mistyped error: %v", err)
	}
}

func TestLoadRejectsBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleState(t)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-3] ^= 0x40 // flip one payload bit; CRC must catch it
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip accepted or mistyped error: %v", err)
	}
}

func TestMarksRoundTrip(t *testing.T) {
	marks := map[string]uint64{"sales": 17, "company": 4}
	var buf bytes.Buffer
	if err := SaveMarks(&buf, sampleState(t), marks); err != nil {
		t.Fatal(err)
	}
	_, got, err := LoadMarks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["sales"] != 17 || got["company"] != 4 {
		t.Errorf("marks = %v", got)
	}
	// Markless snapshots load with nil marks.
	var plain bytes.Buffer
	if err := Save(&plain, sampleState(t)); err != nil {
		t.Fatal(err)
	}
	if _, m, err := LoadMarks(&plain); err != nil || len(m) != 0 {
		t.Errorf("markless snapshot: marks=%v err=%v", m, err)
	}
}

// TestSaveFileAtomic: a save that crashes before the rename leaves the
// previous snapshot fully intact, and no temp litter survives a
// successful save.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	first := sampleState(t)
	if err := SaveFile(path, first); err != nil {
		t.Fatal(err)
	}
	// Crash between temp write and rename.
	disarm := chaos.Arm("snapshot.rename", 1, errors.New("injected crash"))
	defer disarm()
	second := sampleState(t)
	second["R"].InsertValues(relation.Int(99), relation.Float(1), relation.String_("new"), relation.Bool(true), relation.Null())
	if err := SaveFile(path, second); err == nil {
		t.Fatal("armed save did not fail")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("old snapshot unreadable after crashed save: %v", err)
	}
	if !got["R"].Equal(first["R"]) {
		t.Error("crashed save mutated the previous snapshot")
	}
	chaos.Reset()
	if err := SaveFile(path, second); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got["R"].Equal(second["R"]) {
		t.Error("second save not visible")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".snap-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestVerify(t *testing.T) {
	ms := sampleState(t)
	expected := map[string]relation.AttrSet{
		"R":     relation.NewAttrSet("a", "b", "c", "d", "e"),
		"Empty": relation.NewAttrSet("q"),
	}
	if err := Verify(ms, expected); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
	// Missing relation.
	if err := Verify(map[string]*relation.Relation{"R": ms["R"]}, expected); err == nil {
		t.Error("missing relation accepted")
	}
	// Wrong schema.
	bad := map[string]*relation.Relation{"R": relation.New("z"), "Empty": ms["Empty"]}
	if err := Verify(bad, expected); err == nil {
		t.Error("wrong schema accepted")
	}
	// Extra relation.
	extra := sampleState(t)
	extra["Ghost"] = relation.New("g")
	if err := Verify(extra, expected); err == nil {
		t.Error("extra relation accepted")
	}
}

// TestWarehouseSnapshotCycle is the operational scenario: materialize,
// snapshot, restart from disk, keep maintaining — the restored warehouse
// answers queries and reconstructs bases exactly like the original.
func TestWarehouseSnapshotCycle(t *testing.T) {
	sc := workload.Figure1(true)
	comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
	if err != nil {
		t.Fatal(err)
	}
	st := workload.Figure1State(sc.DB)
	w := warehouse.New(comp)
	if err := w.Initialize(st); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "wh.snap")
	if err := SaveFile(path, w.State()); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	expected := map[string]relation.AttrSet{}
	for name, attrs := range comp.Resolver() {
		if _, ok := comp.Views().ByName(name); ok || strings.HasPrefix(name, "C_") {
			expected[name] = attrs
		}
	}
	if err := Verify(restored, expected); err != nil {
		t.Fatal(err)
	}
	w2 := warehouse.New(comp)
	w2.LoadState(restored)
	bases, err := w2.ReconstructBases()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sc.DB.Names() {
		orig, _ := st.Relation(name)
		if !bases[name].Equal(orig) {
			t.Errorf("restored warehouse reconstructs %s wrongly", name)
		}
	}
}

// TestEncodedBytesGolden pins format v3. The small state is spelled out
// byte by byte; the digest is of a relation whose rows go in unsorted and
// cover every value kind, ties on the leading columns included — what
// storage_ratio measures and a follower is shipped.
func TestEncodedBytesGolden(t *testing.T) {
	small := map[string]*relation.Relation{"R": relation.New("k", "v"), "E": relation.New("q")}
	small["R"].InsertValues(relation.Int(7), relation.String_("x"))
	small["R"].InsertValues(relation.Int(-1), relation.Null())
	var buf bytes.Buffer
	if err := SaveMarks(&buf, small, map[string]uint64{"~lsn": 300, "http": 42}); err != nil {
		t.Fatal(err)
	}
	wantSmall := []byte{
		'D', 'W', 'S', '3', // magic
		0x0d, 0xf0, 0x38, 0x7a, // CRC32/IEEE of the payload
		0, 0, 0, 0, 0, 0, 0, 37, // payload length
		2,                    // relations, by name
		1, 'E', 1, 1, 'q', 0, // "E": one attribute "q", no rows
		1, 'R', 2, 1, 'k', 1, 'v', 2, // "R": attributes k, v; two rows, sorted
		2, 1, 0, // int −1 (kind 2, zig-zag 1) | null (kind 0)
		2, 14, 4, 1, 'x', // int 7 | string (kind 4) "x"
		2,                         // marks, by name
		4, 'h', 't', 't', 'p', 42, // "http" → 42
		4, '~', 'l', 's', 'n', 0xac, 0x02, // "~lsn" → 300 (uvarint)
	}
	if !bytes.Equal(buf.Bytes(), wantSmall) {
		t.Fatalf("small state encodes as\n%v\nwant\n%v", buf.Bytes(), wantSmall)
	}

	r := relation.New("k", "f", "s", "b", "n")
	for i := 40; i > 0; i-- {
		k := int64(i * 7 % 11)
		var n relation.Value = relation.Null()
		if i%3 == 0 {
			n = relation.Int(int64(i))
		}
		r.InsertValues(relation.Int(k), relation.Float(float64(i)/4), relation.String_(strings.Repeat("x", i%5)), relation.Bool(i%2 == 0), n)
	}
	buf.Reset()
	if err := SaveMarks(&buf, map[string]*relation.Relation{"R": r}, map[string]uint64{"http": 42}); err != nil {
		t.Fatal(err)
	}
	const want = "4e7418cf49efaaf550052199d4378b69213a9f53626f79c1c0d9b30440b68a3b"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("snapshot encoding changed: %d bytes, sha256 %s, want %s", buf.Len(), got, want)
	}
}

// crcValid wraps a payload in a header that vouches for it: what a
// hostile leader, or a bug in a writer, can put in front of the decoder.
func crcValid(payload []byte) []byte {
	b := append(make([]byte, 16), payload...)
	copy(b, magic[:])
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint64(b[8:16], uint64(len(payload)))
	return b
}

// TestLoadRefusesHostilePayload: a checksum says the bytes arrived, not
// that they are a state. The three relation shapes panicked the parent.
func TestLoadRefusesHostilePayload(t *testing.T) {
	state := func(rel ...byte) []byte { return append(append([]byte{1, 1, 'R'}, rel...), 0) }
	for name, payload := range map[string][]byte{
		"duplicate attribute": state(2, 1, 'a', 1, 'a', 1, 0, 0),
		"empty attribute":     state(2, 1, 'a', 0, 1, 0, 0),
		"short row":           state(2, 1, 'a', 1, 'b', 2, 2, 2, 2, 4, 2, 6),
		"duplicate relation":  {2, 1, 'R', 0, 0, 1, 'R', 0, 0, 0},
		"relations unsorted":  {2, 1, 'S', 0, 0, 1, 'R', 0, 0, 0},
		"duplicate mark":      {0, 2, 1, 'm', 1, 1, 'm', 2},
		"count past the end":  {0xff, 0xff, 0xff, 0xff, 0x0f},
		"trailing bytes":      {0, 0, 0},
		"empty":               {},
	} {
		ms, _, err := LoadMarks(bytes.NewReader(crcValid(payload)))
		if !errors.Is(err, ErrCorrupt) || !errors.Is(err, relation.ErrEncoding) || ms != nil {
			t.Errorf("%s: state %v, error %v; want ErrCorrupt wrapping relation.ErrEncoding", name, ms, err)
		}
	}
	if _, _, err := LoadMarks(bytes.NewReader(crcValid(state(1, 1, 'a', 1, 2, 2)))); err != nil {
		t.Errorf("control payload refused: %v", err)
	}
}

// TestLoadEveryPrefixIsCorrupt: no cut of a valid snapshot loads.
func TestLoadEveryPrefixIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveMarks(&buf, sampleState(t), map[string]uint64{"http": 3}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := range len(data) {
		if _, _, err := LoadMarks(bytes.NewReader(data[:n])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: %v", n, len(data), err)
		}
	}
}

// TestLoadDoesNotTrustTheLength: the header's length is a claim. One that
// says 4 GiB in front of a few bytes — on a follower it comes off the
// network — is a truncated payload, not a 4 GiB allocation.
func TestLoadDoesNotTrustTheLength(t *testing.T) {
	hdr := crcValid(nil)
	binary.BigEndian.PutUint64(hdr[8:16], 1<<32)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, _, err := LoadMarks(bytes.NewReader(append(hdr, "a few bytes"...)))
	runtime.ReadMemStats(&ms)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
	if got := ms.TotalAlloc - before; got > 256<<10 {
		t.Errorf("%d bytes allocated for a 27-byte input", got)
	}
	// A payload longer than the first buffer still arrives whole.
	big := bytes.Repeat([]byte{0xa5}, 300<<10)
	if got, err := ReadN(bytes.NewReader(big), uint64(len(big))); err != nil || !bytes.Equal(got, big) {
		t.Errorf("ReadN of %d bytes: %d bytes, error %v", len(big), len(got), err)
	}
}

// TestLoadRefusesFormatV2 reads a checkpoint the parent of format v3
// wrote (gob behind magic "DWSN"): refused by name, not as corruption.
func TestLoadRefusesFormatV2(t *testing.T) {
	_, _, err := LoadFileMarks(filepath.Join("..", "..", "testdata", "v2", "state.snap"))
	if !errors.Is(err, ErrOldFormat) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format v2") {
		t.Fatalf("error %v, want ErrOldFormat naming the format", err)
	}
}
