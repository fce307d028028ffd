package snapshot

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	path := filepath.Join(t.TempDir(), "state.gob")
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
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
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
	path := filepath.Join(t.TempDir(), "trunc.gob")
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
	path := filepath.Join(dir, "state.gob")
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

	path := filepath.Join(t.TempDir(), "wh.gob")
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

// TestEncodedBytesGolden pins the encoded bytes of a fixed state: a
// single relation (gob walks maps in random order, so only one-entry
// maps have one encoding) whose rows go in unsorted and cover every
// value kind, ties on the leading columns included. The digest was
// recorded before ToWireRelation stopped cloning rows for the sort, so
// storage_ratio and what a follower is shipped cannot have moved.
func TestEncodedBytesGolden(t *testing.T) {
	r := relation.New("k", "f", "s", "b", "n")
	for i := 40; i > 0; i-- {
		k := int64(i * 7 % 11)
		var n relation.Value = relation.Null()
		if i%3 == 0 {
			n = relation.Int(int64(i))
		}
		r.InsertValues(relation.Int(k), relation.Float(float64(i)/4), relation.String_(strings.Repeat("x", i%5)), relation.Bool(i%2 == 0), n)
	}
	var buf bytes.Buffer
	if err := SaveMarks(&buf, map[string]*relation.Relation{"R": r}, map[string]uint64{"http": 42}); err != nil {
		t.Fatal(err)
	}
	const want = "7ec3100a565c9522f228d05f04b38df9ea16e9644d112030a8b3e52c992d9316"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("snapshot encoding changed: %d bytes, sha256 %s, want %s", buf.Len(), got, want)
	}
}

// TestWireValueLayout is the other half of wireRow's soundness check: a
// tuple is encoded through a []WireValue view of its own memory, so the
// two value types must agree field by field in kind, size and offset.
func TestWireValueLayout(t *testing.T) {
	v, w := reflect.TypeOf(relation.Value{}), reflect.TypeOf(WireValue{})
	if v.NumField() != w.NumField() {
		t.Fatalf("relation.Value has %d fields, WireValue %d", v.NumField(), w.NumField())
	}
	for i := 0; i < v.NumField(); i++ {
		vf, wf := v.Field(i), w.Field(i)
		if vf.Type.Kind() != wf.Type.Kind() || vf.Type.Size() != wf.Type.Size() || vf.Offset != wf.Offset {
			t.Errorf("field %d: relation.Value.%s is %s at offset %d, WireValue.%s is %s at offset %d",
				i, vf.Name, vf.Type, vf.Offset, wf.Name, wf.Type, wf.Offset)
		}
	}
}
