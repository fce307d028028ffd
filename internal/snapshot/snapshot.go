// Package snapshot persists materialized warehouse states (and any other
// relation maps) to disk and restores them. A warehouse deployment saves
// its state after each maintenance batch and restarts from the snapshot —
// without ever contacting the sources, which is the whole point of an
// independent warehouse: its state is self-contained.
//
// The on-disk format is crash-safe end to end: a fixed binary header
// carrying a CRC32 of the gob payload (so truncated or bit-rotted files
// are rejected with ErrCorrupt instead of being half-loaded), written to
// a temp file that is fsync'd and atomically renamed into place (so a
// crash mid-write leaves the previous snapshot intact). Snapshots also
// carry per-source applied-sequence watermarks, which tell a recovering
// integrator where in its journal to resume replay.
//
// Mark names beginning with "~" are reserved for replication metadata
// (the node's epoch and log position, see internal/replica): they ride
// the same marks map — no format bump — and are split back out by
// replica.SplitMetaMarks on load, so source names must never start
// with "~".
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/relation"
)

// formatVersion guards against reading snapshots from incompatible
// versions of the wire format. Version 2 added the CRC header and the
// applied-sequence watermarks; version 1 files (headerless gob) are no
// longer readable.
const formatVersion = 2

// magic opens every snapshot file; a file without it is not a snapshot.
var magic = [4]byte{'D', 'W', 'S', 'N'}

// ErrCorrupt reports a snapshot that cannot be trusted: bad magic,
// truncated payload, or checksum mismatch. Callers distinguish it from
// I/O errors to decide between "fall back to older snapshot" and
// "retry the read".
var ErrCorrupt = errors.New("snapshot: corrupt or truncated")

// WireValue is the exported gob mirror of relation.Value: the same
// fields in the same order, exported for the reflection-based encoders.
// The journal package reuses it so updates and states share one value
// codec.
type WireValue struct {
	Kind uint8
	B    bool
	I    int64
	F    float64
	S    string
}

// wireRow views a tuple's values as wire values without copying them. A
// checkpoint encodes every value of the warehouse; converting them first
// kept a second, 40-byte-per-value image of the warehouse alive for the
// whole encode, which the background checkpointer cannot afford beside
// running commits (leader RSS +35 % on the benchmark's update workload).
// The view aliases the tuple and, like it, must not be modified.
//
// It is sound only while relation.Value and WireValue are laid out
// alike: the size is checked here at compile time (the index must be the
// constant 0), field order, types and offsets by TestWireValueLayout.
func wireRow(t relation.Tuple) []WireValue {
	return unsafe.Slice((*WireValue)(unsafe.Pointer(unsafe.SliceData(t))), len(t))
}

var _ = [1]struct{}{}[unsafe.Sizeof(relation.Value{})-unsafe.Sizeof(WireValue{})]

// FromWireValue restores a relation value.
func FromWireValue(w WireValue) (relation.Value, error) {
	switch relation.Kind(w.Kind) {
	case relation.KindNull:
		return relation.Null(), nil
	case relation.KindBool:
		return relation.Bool(w.B), nil
	case relation.KindInt:
		return relation.Int(w.I), nil
	case relation.KindFloat:
		return relation.Float(w.F), nil
	case relation.KindString:
		return relation.String_(w.S), nil
	default:
		return relation.Value{}, fmt.Errorf("snapshot: unknown value kind %d", w.Kind)
	}
}

// WireRelation is one serialized relation: attribute order plus rows in
// that order.
type WireRelation struct {
	Attrs []string
	Rows  [][]WireValue
}

// ToWireRelation serializes a relation (rows in canonical sorted order,
// so equal relations serialize identically). The rows alias the
// relation's tuples: encode them, do not modify them.
func ToWireRelation(r *relation.Relation) WireRelation {
	wr := WireRelation{Attrs: append([]string(nil), r.Attrs()...)}
	if r.Len() == 0 {
		return wr
	}
	// The rows are only read by the encoders, so they are sorted and
	// handed over as they are: no tuple is copied, no value converted.
	wr.Rows = make([][]WireValue, 0, r.Len())
	for _, t := range r.SortedRows() {
		wr.Rows = append(wr.Rows, wireRow(t))
	}
	return wr
}

// FromWireRelation restores a relation.
func FromWireRelation(wr WireRelation) (*relation.Relation, error) {
	rel := relation.New(wr.Attrs...)
	for _, row := range wr.Rows {
		t := make(relation.Tuple, len(row))
		for i, wv := range row {
			v, err := FromWireValue(wv)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		rel.Insert(t)
	}
	return rel, nil
}

// wireSnapshot is the gob payload behind the binary header.
type wireSnapshot struct {
	Version   int
	Relations map[string]WireRelation
	// Marks are per-source applied-sequence watermarks: every journal
	// record with Seq ≤ Marks[source] is already reflected in the
	// relations and must be skipped during replay.
	Marks map[string]uint64
}

// Save writes the relation map to w (no watermarks).
func Save(w io.Writer, ms map[string]*relation.Relation) error {
	return SaveMarks(w, ms, nil)
}

// SaveMarks writes the relation map plus per-source applied-sequence
// watermarks to w: header (magic, CRC32, payload length) then payload.
func SaveMarks(w io.Writer, ms map[string]*relation.Relation, marks map[string]uint64) error {
	out := wireSnapshot{
		Version:   formatVersion,
		Relations: make(map[string]WireRelation, len(ms)),
	}
	for name, r := range ms {
		out.Relations[name] = ToWireRelation(r)
	}
	if len(marks) > 0 {
		out.Marks = make(map[string]uint64, len(marks))
		for s, q := range marks {
			out.Marks[s] = q
		}
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(out); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	var hdr [16]byte
	copy(hdr[:4], magic[:])
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// Load reads a relation map from r, discarding any watermarks.
func Load(r io.Reader) (algebra.MapState, error) {
	ms, _, err := LoadMarks(r)
	return ms, err
}

// LoadMarks reads a relation map and its watermarks from r. Corrupt or
// truncated input fails with an error wrapping ErrCorrupt.
func LoadMarks(r io.Reader) (algebra.MapState, map[string]uint64, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	wantCRC := binary.BigEndian.Uint32(hdr[4:8])
	length := binary.BigEndian.Uint64(hdr[8:16])
	const maxPayload = 1 << 32
	if length > maxPayload {
		return nil, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var in wireSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("%w: undecodable payload: %v", ErrCorrupt, err)
	}
	if in.Version != formatVersion {
		return nil, nil, fmt.Errorf("snapshot: unsupported format version %d (want %d)", in.Version, formatVersion)
	}
	out := make(algebra.MapState, len(in.Relations))
	for name, wr := range in.Relations {
		rel, err := FromWireRelation(wr)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: relation %s: %w", name, err)
		}
		out[name] = rel
	}
	return out, in.Marks, nil
}

// SaveFile writes the relation map to a file atomically (see
// SaveFileMarks).
func SaveFile(path string, ms map[string]*relation.Relation) error {
	return SaveFileMarks(path, ms, nil)
}

// SaveFileMarks writes the relation map and watermarks to path with
// crash-safe semantics: the bytes go to a temp file in the target
// directory, the temp file is fsync'd, then renamed over path. A crash
// at any point leaves either the old complete snapshot or the new
// complete snapshot — never a torn mix.
func SaveFileMarks(path string, ms map[string]*relation.Relation, marks map[string]uint64) error {
	_, err := SaveFileMarksTimed(path, ms, marks)
	return err
}

// tempPattern names the temp files SaveFileMarks writes next to its
// target.
const tempPattern = ".snap-*"

// SweepTemps removes the temp files that saves into dir left behind
// when the process was killed before their rename. Nothing ever reads
// one, so the owner of the directory calls this before it loads.
func SweepTemps(dir string) error {
	stale, err := filepath.Glob(filepath.Join(dir, tempPattern))
	if err != nil {
		return err
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// SaveStats is what one save cost: the file's size, the time to encode
// the relations and write them to the temp file, and the temp file's
// fsync.
type SaveStats struct {
	Bytes  int64
	Encode time.Duration
	Sync   time.Duration
}

// SaveFileMarksTimed is SaveFileMarks reporting what the save cost.
func SaveFileMarksTimed(path string, ms map[string]*relation.Relation, marks map[string]uint64) (SaveStats, error) {
	var st SaveStats
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		return st, err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := chaos.Point("snapshot.write"); err != nil {
		return st, err
	}
	start := time.Now()
	if err := SaveMarks(tmp, ms, marks); err != nil {
		return st, err
	}
	st.Encode = time.Since(start)
	if st.Bytes, err = tmp.Seek(0, io.SeekCurrent); err != nil {
		return st, err
	}
	start = time.Now()
	if err := tmp.Sync(); err != nil {
		return st, err
	}
	st.Sync = time.Since(start)
	if err := chaos.Point("snapshot.rename"); err != nil {
		return st, err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return st, err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		tmp = nil
		return st, err
	}
	tmp = nil
	// Persist the rename itself: fsync the directory (best effort on
	// filesystems that refuse directory fsync).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return st, nil
}

// LoadFile reads a relation map from a file.
func LoadFile(path string) (algebra.MapState, error) {
	ms, _, err := LoadFileMarks(path)
	return ms, err
}

// LoadFileMarks reads a relation map and its watermarks from a file.
func LoadFileMarks(path string) (algebra.MapState, map[string]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return LoadMarks(f)
}

// Verify checks that a restored state matches the warehouse layout
// expected by the resolver: every expected relation present with the
// right attribute set, no extras.
func Verify(ms algebra.MapState, expected map[string]relation.AttrSet) error {
	for name, attrs := range expected {
		r, ok := ms[name]
		if !ok {
			return fmt.Errorf("snapshot: missing relation %q", name)
		}
		if !r.AttrSet().Equal(attrs) {
			return fmt.Errorf("snapshot: relation %q has attributes %v, want %v", name, r.AttrSet(), attrs)
		}
	}
	for name := range ms {
		if _, ok := expected[name]; !ok {
			return fmt.Errorf("snapshot: unexpected relation %q", name)
		}
	}
	return nil
}
