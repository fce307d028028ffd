package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

func sampleState(t testing.TB) map[string]*relation.Relation {
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

// TestEncodedBytesGolden pins format v5. The small state is spelled out
// byte by byte; the digest is of a relation of two pages whose columns
// cover every layout — what storage_ratio measures and a follower is
// shipped. Rows are in storage order, which is insertion order here.
func TestEncodedBytesGolden(t *testing.T) {
	small := map[string]*relation.Relation{"R": relation.New("k", "v"), "E": relation.New("q")}
	small["R"].InsertValues(relation.Int(7), relation.String_("x"))
	small["R"].InsertValues(relation.Int(-1), relation.Null())
	var buf bytes.Buffer
	if err := SaveMarks(&buf, small, map[string]uint64{"~lsn": 300, "http": 42}); err != nil {
		t.Fatal(err)
	}
	wantSmall := []byte{
		'D', 'W', 'S', '5', // magic
		0x0c, 0xa9, 0xaa, 0x5a, // CRC32/IEEE of the manifest
		0, 0, 0, 0, 0, 0, 0, 34, // manifest length
		2,                    // relations, by name
		1, 'E', 1, 1, 'q', 0, // "E": one attribute "q", no rows, so no page
		1, 'R', 2, 1, 'k', 1, 'v', 2, // "R": attributes k, v; two rows, so one page:
		9, 0x35, 0xb7, 0x1d, 0x3a, // its section's length and CRC32/IEEE
		2,                         // marks, by name
		4, 'h', 't', 't', 'p', 42, // "http" → 42
		4, '~', 'l', 's', 'n', 0xac, 0x02, // "~lsn" → 300 (uvarint)
		// the sections, in manifest order: R's page 0, a column after the other
		2, 1, 4, 0x08, // k: ints from −1 (zig-zag 1) in 4 bits: offsets 8, 0
		4 | 8, 0b10, 1, 1, 'x', // v: strings, row 1 NULL; the one string "x", codes of 0 bits
	}
	if !bytes.Equal(buf.Bytes(), wantSmall) {
		t.Fatalf("small state encodes as\n%v\nwant\n%v", buf.Bytes(), wantSmall)
	}

	r := relation.New("k", "f", "s", "b", "n")
	for i := relation.BatchSize + 40; i > 0; i-- {
		var n relation.Value = relation.Null()
		if i%3 == 0 {
			n = relation.Int(int64(i))
		}
		r.InsertValues(relation.Int(int64(i)), relation.Float(float64(i)/4), relation.String_(strings.Repeat("x", i%5)), relation.Bool(i%2 == 0), n)
	}
	buf.Reset()
	if err := SaveMarks(&buf, map[string]*relation.Relation{"R": r}, map[string]uint64{"http": 42}); err != nil {
		t.Fatal(err)
	}
	const want = "9704b46f34a01a7707383ca478e90821523a4f300cbabe8d52e44a488e224207"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("snapshot encoding changed: %d bytes, sha256 %s, want %s", buf.Len(), got, want)
	}
}

// rawFile assembles a snapshot by hand — a header that vouches for the
// manifest, then whatever sections: what a hostile leader, or a bug in a
// writer, can put in front of the loader.
func rawFile(manifest []byte, sections ...[]byte) []byte {
	b := append(make([]byte, 16), manifest...)
	copy(b, magic[:])
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(manifest))
	binary.BigEndian.PutUint64(b[8:16], uint64(len(manifest)))
	return append(b, bytes.Join(sections, nil)...)
}

// rawRelation is a relation's manifest entry with true lengths and CRCs
// for the given sections.
func rawRelation(name string, attrs []string, rows uint64, sections ...[]byte) []byte {
	b := binary.AppendUvarint(relation.AppendString(nil, name), uint64(len(attrs)))
	for _, a := range attrs {
		b = relation.AppendString(b, a)
	}
	b = binary.AppendUvarint(b, rows)
	for _, sec := range sections {
		b = binary.BigEndian.AppendUint32(binary.AppendUvarint(b, uint64(len(sec))), crc32.ChecksumIEEE(sec))
	}
	return b
}

// oneRelation is a whole manifest around one relation entry, no marks.
func oneRelation(entry []byte) []byte { return append(append([]byte{1}, entry...), 0) }

// ints is a section of int columns, one argument per column, the way
// format v5 writes it (relation/codec.go): tag 2, the zig-zag minimum, the
// width, each offset from the minimum packed least significant bit first.
// Unlike a relation's own sections, it may hold a row twice.
func ints(cols ...[]int64) []byte {
	var b []byte
	for _, col := range cols {
		lo, hi := slices.Min(col), slices.Max(col)
		w := bits.Len64(uint64(hi - lo))
		b = append(binary.AppendVarint(append(b, 2), lo), byte(w))
		packed := make([]byte, (len(col)*w+7)/8)
		for i, v := range col {
			for j := range w {
				if uint64(v-lo)>>j&1 != 0 {
					packed[(i*w+j)/8] |= 1 << ((i*w + j) % 8)
				}
			}
		}
		b = append(b, packed...)
	}
	return b
}

// TestLoadRefusesHostilePayload: a checksum says the bytes arrived, not
// that they are a state. Every refusal is ErrCorrupt, never a half-loaded
// state; what the decoders refuse also wraps relation.ErrEncoding.
func TestLoadRefusesHostilePayload(t *testing.T) {
	ab := []string{"a", "b"}
	var all []int64 // a full page over (a): 0 … 1023
	for i := range relation.BatchSize {
		all = append(all, int64(i))
	}
	full, one := ints(all), ints([]int64{1}, []int64{2})
	cut := ints([]int64{1, 3}, []int64{2, 4})
	lying := append(rawRelation("R", ab, 1), 0xff, 0xff, 0xff, 0xff, 0x07, 0, 0, 0, 0) // a 2 GiB section, it says

	for name, tc := range map[string]struct {
		file     []byte
		encoding bool   // the error also wraps relation.ErrEncoding
		names    string // and names this
	}{
		"duplicate attribute": {rawFile(oneRelation(rawRelation("R", []string{"a", "a"}, 0))), true, `"R"`},
		"empty attribute":     {rawFile(oneRelation(rawRelation("R", []string{"a", ""}, 0))), true, `"R"`},
		"short row":           {rawFile(oneRelation(rawRelation("R", ab, 2, ints([]int64{1, 3}))), ints([]int64{1, 3})), true, `"R": page 0`},
		"rows beyond count":   {rawFile(oneRelation(rawRelation("R", ab, 1, cut)), cut), true, `"R": page 0`},
		"rows short of count": {rawFile(oneRelation(rawRelation("R", ab, 3, cut)), cut), true, `"R": page 0`},
		"pages beyond count":  {rawFile(oneRelation(rawRelation("R", ab, 1, one, one)), one, one), true, ""},
		"row twice in a page": {rawFile(oneRelation(rawRelation("R", ab, 2, ints([]int64{1, 1}, []int64{2, 2}))), ints([]int64{1, 1}, []int64{2, 2})), true, `"R": page 0`},
		"row in two sections": {rawFile(oneRelation(rawRelation("R", []string{"a"}, relation.BatchSize+1, full, ints([]int64{7}))), full, ints([]int64{7})), true, `"R": page 1`},
		"duplicate relation":  {rawFile(append(append(append([]byte{2}, rawRelation("R", ab, 0)...), rawRelation("R", ab, 0)...), 0)), true, `"R"`},
		"relations unsorted":  {rawFile(append(append(append([]byte{2}, rawRelation("S", ab, 0)...), rawRelation("R", ab, 0)...), 0)), true, `"R"`},
		"duplicate mark":      {rawFile([]byte{0, 2, 1, 'm', 1, 1, 'm', 2}), true, `"m"`},
		"count past the end":  {rawFile([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}), true, ""},
		"rows past the end":   {rawFile(oneRelation(append(rawRelation("R", ab, 0)[:6], 0xff, 0xff, 0xff, 0xff, 0x0f))), true, `"R"`},
		"bytes after marks":   {rawFile([]byte{0, 0, 0}), true, ""},
		"empty manifest":      {rawFile(nil), true, ""},
		"section bit flip":    {rawFile(oneRelation(rawRelation("R", ab, 1, one)), ints([]int64{1}, []int64{3})), false, `"R": page 0`},
		"cut mid-section":     {rawFile(oneRelation(rawRelation("R", ab, 2, cut)), cut[:len(cut)-1]), false, `"R": page 0`},
		"section missing":     {rawFile(oneRelation(rawRelation("R", ab, 1, one))), false, `"R": page 0`},
		"bytes after the end": {rawFile(oneRelation(rawRelation("R", ab, 1, one)), one, []byte{0}), false, "after the last section"},
		"length that lies":    {rawFile(oneRelation(lying), one), false, `"R": page 0`},
	} {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		ms, _, err := LoadMarks(bytes.NewReader(tc.file))
		runtime.ReadMemStats(&m)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, relation.ErrEncoding) != tc.encoding || ms != nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: state %v, error %v; want ErrCorrupt (wrapping relation.ErrEncoding: %v) naming %s", name, ms, err, tc.encoding, tc.names)
		}
		if got := m.TotalAlloc - before; got > 512<<10 {
			t.Errorf("%s: %d bytes allocated for a %d-byte input", name, got, len(tc.file))
		}
	}
	control := rawFile(oneRelation(rawRelation("R", []string{"a"}, relation.BatchSize+1, full, ints([]int64{-7}))), full, ints([]int64{-7}))
	if ms, _, err := LoadMarks(bytes.NewReader(control)); err != nil || ms["R"].Len() != relation.BatchSize+1 {
		t.Errorf("control file refused: %v", err)
	}
}

// TestLoadRejectsBitFlip: one flipped bit anywhere in a snapshot of
// several pages — header, manifest, any section — is ErrCorrupt, and the
// error of a flip inside a section names the relation and the page.
func TestLoadRejectsBitFlip(t *testing.T) {
	r := relation.New("k", "s")
	for i := range 2*relation.BatchSize + 3 {
		r.InsertValues(relation.Int(int64(i)), relation.String_(fmt.Sprint("v", i%9)))
	}
	var buf bytes.Buffer
	if err := SaveMarks(&buf, map[string]*relation.Relation{"R": r, "Q": sampleState(t)["R"]}, map[string]uint64{"http": 9}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	manifestEnd := 16 + int(binary.BigEndian.Uint64(data[8:16]))
	sec, _ := sampleState(t)["R"].PageSection(0)
	firstOfR := manifestEnd + len(sec.Bytes) // Q's one section sorts before R's three
	for pos := 0; pos < len(data); pos += 1 + pos%7 {
		flipped := bytes.Clone(data)
		flipped[pos] ^= 1 << (pos % 8)
		ms, _, err := LoadMarks(bytes.NewReader(flipped))
		if !errors.Is(err, ErrCorrupt) || ms != nil {
			t.Fatalf("bit flipped in byte %d of %d: state %v, error %v", pos, len(data), ms, err)
		}
		if pos >= firstOfR && !strings.Contains(err.Error(), `relation "R": page `) {
			t.Fatalf("bit flipped in byte %d, inside a section of R: error %v does not name relation and page", pos, err)
		}
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
// network — is a truncated manifest, not a 4 GiB allocation.
func TestLoadDoesNotTrustTheLength(t *testing.T) {
	hdr := rawFile(nil)
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

// TestLoadRefusesFormatV2 reads checkpoints the writers of earlier formats
// left (v2: gob behind magic "DWSN"; v3: one sorted payload behind
// "DWS3"; v4: sections of values row by row behind "DWS4"; each sample
// written by the dwserve of the time): refused by name — the version
// found — not as corruption.
func TestLoadRefusesFormatV2(t *testing.T) {
	for _, v := range []string{"v2", "v3", "v4"} {
		_, _, err := LoadFileMarks(filepath.Join("..", "..", "testdata", v, "state.snap"))
		if !errors.Is(err, ErrOldFormat) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "written by format "+v+", not readable by this build") {
			t.Errorf("%s: error %v, want ErrOldFormat naming the format", v, err)
		}
	}
}

// TestSaveEncodesWhatChanged: a save encodes the pages written since some
// relation sharing them was last saved — through whichever version — and
// copies the rest; what loads saves again without encoding anything.
func TestSaveEncodesWhatChanged(t *testing.T) {
	r := relation.New("k", "s")
	for i := range 5*relation.BatchSize + 3 {
		r.InsertValues(relation.Int(int64(i)), relation.String_(fmt.Sprint("v", i%9)))
	}
	path := filepath.Join(t.TempDir(), "state.snap")
	next := r.Clone() // the writer is already a version ahead when the first save runs
	st, err := SaveFileMarksTimed(path, map[string]*relation.Relation{"R": r}, nil)
	if err != nil || st.PagesEncoded != 6 || st.PagesReused != 0 {
		t.Fatalf("first save: %+v, error %v; want 6 pages encoded", st, err)
	}
	next.Delete(relation.Tuple{relation.Int(7), relation.String_("v7")}) // page 0, and the last
	next.InsertValues(relation.Int(-1), relation.String_("new"))         // the last
	st, err = SaveFileMarksTimed(path, map[string]*relation.Relation{"R": next}, nil)
	if err != nil || st.PagesEncoded != 2 || st.PagesReused != 4 {
		t.Fatalf("save of the next version: %+v, error %v; want 2 pages encoded, 4 reused", st, err)
	}
	ms, err := LoadFile(path)
	if err != nil || !ms["R"].Equal(next) {
		t.Fatalf("load: error %v", err)
	}
	first, _ := os.ReadFile(path)
	st, err = SaveFileMarksTimed(path, ms, nil)
	if again, _ := os.ReadFile(path); err != nil || st.PagesEncoded != 0 || !bytes.Equal(first, again) {
		t.Fatalf("save of the loaded state: %+v, error %v, same bytes %v; want nothing encoded", st, err, bytes.Equal(first, again))
	}
}

// FuzzLoadMarks: whatever the bytes, LoadMarks does not panic and fails
// only with ErrCorrupt or ErrOldFormat; what it loads saves to a file
// that loads equal — to the very bytes, the loader accepting nothing but
// what the writer writes.
func FuzzLoadMarks(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveMarks(&buf, map[string]*relation.Relation{"R": relation.New("k"), "S": relation.New("a", "b")}, map[string]uint64{"http": 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	r := relation.New("k") // two pages, in few bytes: the fuzzer minimizes what it keeps
	for i := range relation.BatchSize + 2 {
		r.InsertValues(relation.Int(int64(i)))
	}
	r.InsertValues(relation.Null())
	buf.Reset()
	if err := SaveMarks(&buf, map[string]*relation.Relation{"R": r, "V": sampleState(f)["R"]}, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add(rawFile(oneRelation(rawRelation("R", []string{"a"}, 2, ints([]int64{1, 2}))), ints([]int64{1, 2})))
	f.Add([]byte("DWS3"))
	f.Add([]byte("DWS4"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, marks, err := LoadMarks(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrOldFormat) {
				t.Fatalf("error %v wraps neither ErrCorrupt nor ErrOldFormat", err)
			}
			return
		}
		var out bytes.Buffer
		if err := SaveMarks(&out, ms, marks); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("a loaded snapshot of %d bytes saves to %d other bytes (error %v)", len(data), out.Len(), err)
		}
		again, marksAgain, err := LoadMarks(&out)
		if err != nil || len(again) != len(ms) || len(marksAgain) != len(marks) {
			t.Fatalf("the saved state does not load back: %v", err)
		}
		for name, rel := range ms {
			if !again[name].Equal(rel) {
				t.Fatalf("relation %q changed across save and load", name)
			}
		}
	})
}
