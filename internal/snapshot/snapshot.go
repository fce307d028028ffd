// Package snapshot persists materialized warehouse states (and any other
// relation maps) to disk and restores them. A warehouse deployment saves
// its state after each maintenance batch and restarts from the snapshot —
// without ever contacting the sources, which is the whole point of an
// independent warehouse: its state is self-contained.
//
// Format v3, all integers big endian:
//
//	magic "DWS3" | CRC32/IEEE of payload (4) | payload length (8)
//	payload: state, then uvarint count of marks and, in name order,
//	         count × (name, uvarint watermark)
//	state:   uvarint count of relations and, in name order,
//	         count × (name, relation)
//
// with names, uvarints and relations in package relation's encoding
// (relation/codec.go), so one state has one encoding. The file is
// crash-safe end to end: truncated or bit-rotted bytes are rejected
// with ErrCorrupt instead of being half-loaded, and a save goes to a
// temp file that is fsync'd and atomically renamed into place, so a
// crash mid-write leaves the previous snapshot intact. The marks are
// per-source applied-sequence watermarks, which tell a recovering
// integrator where in its journal to resume replay. A file of the
// previous format (v2: magic "DWSN", a gob payload) is refused with
// ErrOldFormat — by name, not as corruption, and never by starting
// empty beside it; its reader went with the types it needed.
//
// Mark names beginning with "~" are reserved for replication metadata
// (the node's epoch and log position, see internal/replica): they ride
// the same marks map and are split back out by replica.SplitMetaMarks
// on load, so source names must never start with "~".
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/relation"
)

// magic opens every snapshot file; magicV2 opened the gob format.
var magic, magicV2 = [4]byte{'D', 'W', 'S', '3'}, [4]byte{'D', 'W', 'S', 'N'}

// ErrCorrupt reports a snapshot that cannot be trusted: bad magic,
// truncated payload, checksum mismatch, or a payload the decoder
// refuses. Callers distinguish it from I/O errors to decide between
// "fall back to older snapshot" and "retry the read".
var ErrCorrupt = errors.New("snapshot: corrupt or truncated")

// ErrOldFormat reports an intact file this build has no reader for.
var ErrOldFormat = errors.New("snapshot: written by format v2, not readable by this build")

// AppendState appends a set of named relations — a warehouse state, or
// one side of an update — to b.
func AppendState(b []byte, ms map[string]*relation.Relation) []byte {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for _, name := range slices.Sorted(maps.Keys(ms)) {
		b = ms[name].AppendBinary(relation.AppendString(b, name))
	}
	return b
}

// DecodeState reads what AppendState wrote off the front of b; its
// errors wrap relation.ErrEncoding.
func DecodeState(b []byte) (algebra.MapState, []byte, error) {
	n, b, err := relation.DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	ms := algebra.MapState{}
	for i, name := uint64(0), ""; i < n; i++ {
		if name, b, err = nextName(b, i == 0, name); err != nil {
			return nil, nil, err
		}
		if ms[name], b, err = relation.DecodeBinary(b); err != nil {
			return nil, nil, fmt.Errorf("relation %q: %w", name, err)
		}
	}
	return ms, b, nil
}

// nextName reads the next name of a list written in name order; prev is
// the one before it unless this is the first.
func nextName(b []byte, first bool, prev string) (string, []byte, error) {
	name, b, err := relation.DecodeString(b)
	if err == nil && !first && name <= prev {
		err = fmt.Errorf("%w: name %q duplicated or out of order", relation.ErrEncoding, name)
	}
	return name, b, err
}

// ReadN reads exactly n bytes from r into a buffer that grows as they
// arrive: a length prefix that lies — on a follower it comes off the
// network — costs 64 KiB or twice what was sent, not what it claims. A
// short read returns the io.ReadFull error.
func ReadN(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, 0, min(n, 64<<10))
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(len(buf)))))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, uint64(cap(buf)))])
		if buf = buf[:len(buf)+m]; err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Save writes the relation map to w (no watermarks).
func Save(w io.Writer, ms map[string]*relation.Relation) error {
	return SaveMarks(w, ms, nil)
}

// SaveMarks writes the relation map plus per-source applied-sequence
// watermarks to w: header (magic, CRC32, payload length) then payload.
// Every journal record with Seq ≤ marks[source] is already reflected in
// the relations and is skipped during replay.
func SaveMarks(w io.Writer, ms map[string]*relation.Relation, marks map[string]uint64) error {
	b := AppendState(make([]byte, 16, 1<<16), ms)
	b = binary.AppendUvarint(b, uint64(len(marks)))
	for _, s := range slices.Sorted(maps.Keys(marks)) {
		b = binary.AppendUvarint(relation.AppendString(b, s), marks[s])
	}
	copy(b[:4], magic[:])
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[16:]))
	binary.BigEndian.PutUint64(b[8:16], uint64(len(b)-16))
	_, err := w.Write(b)
	return err
}

// Load reads a relation map from r, discarding any watermarks.
func Load(r io.Reader) (algebra.MapState, error) {
	ms, _, err := LoadMarks(r)
	return ms, err
}

// LoadMarks reads a relation map and its watermarks from r. Corrupt or
// truncated input fails with an error wrapping ErrCorrupt, a v2 file
// with ErrOldFormat.
func LoadMarks(r io.Reader) (algebra.MapState, map[string]uint64, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	switch [4]byte(hdr[:4]) {
	case magic:
	case magicV2:
		return nil, nil, ErrOldFormat
	default:
		return nil, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	wantCRC := binary.BigEndian.Uint32(hdr[4:8])
	length := binary.BigEndian.Uint64(hdr[8:16])
	const maxPayload = 1 << 32
	if length > maxPayload {
		return nil, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	payload, err := ReadN(r, length)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	ms, marks, err := decodePayload(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: undecodable payload: %w", ErrCorrupt, err)
	}
	return ms, marks, nil
}

func decodePayload(b []byte) (algebra.MapState, map[string]uint64, error) {
	ms, b, err := DecodeState(b)
	if err != nil {
		return nil, nil, err
	}
	n, b, err := relation.DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	var marks map[string]uint64 // nil when the snapshot carries none
	for i, s := uint64(0), ""; i < n; i++ {
		if s, b, err = nextName(b, i == 0, s); err != nil {
			return nil, nil, err
		}
		if marks == nil {
			marks = map[string]uint64{}
		}
		if marks[s], b, err = relation.DecodeUvarint(b); err != nil {
			return nil, nil, err
		}
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("%w: %d bytes after the marks", relation.ErrEncoding, len(b))
	}
	return ms, marks, nil
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
