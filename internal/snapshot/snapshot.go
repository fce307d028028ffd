// Package snapshot persists materialized warehouse states (and any other
// relation maps) to disk and restores them. A warehouse deployment saves
// its state after each maintenance batch and restarts from the snapshot —
// without ever contacting the sources, which is the whole point of an
// independent warehouse: its state is self-contained.
//
// Format v5, all integers big endian:
//
//	magic "DWS5" | CRC32/IEEE of manifest (4) | manifest length (8)
//	manifest: uvarint count of relations and, in name order,
//	            count × (name, header, pages × (uvarint section
//	            length, CRC32/IEEE of the section (4)))
//	          uvarint count of marks and, in name order,
//	            count × (name, uvarint watermark)
//	sections: every page's section, in manifest order, to the end of
//	          the file
//
// with names, uvarints, relation headers (arity, attributes, row count)
// and sections in package relation's encodings (relation/codec.go). A
// relation of n rows has ⌈n/1024⌉ pages, and a section is one page's
// column vectors, packed: ints bit-packed from the page's minimum, strings
// as the strings the page uses and bit-packed codes into them, floats in
// their 8 bytes, bools and NULLs as bitmaps. The bytes are derived from an
// immutable page and cached with it (relation.PageSection), so a save
// encodes the pages written since the last one and copies the rest, and a
// load fills the vectors straight from them (relation.DecodePages). The
// order of rows in the file is therefore the order of storage, not a
// canonical one; what loads re-saves to the same bytes. The file is
// crash-safe end to end: truncated or bit-rotted bytes — in the header,
// the manifest or any section — are rejected with ErrCorrupt instead of
// being half-loaded, and a save goes to a temp file that is fsync'd and
// atomically renamed into place, so a crash mid-write leaves the previous
// snapshot intact.
// The marks are per-source applied-sequence watermarks, which tell a
// recovering integrator where in its journal to resume replay. A file of
// an earlier format (v4: magic "DWS4", sections of values row by row; v3:
// "DWS3", one sorted payload; v2: "DWSN", a gob payload) is refused with
// ErrOldFormat — by name, not as corruption, and never by starting empty
// beside it; their readers went with their writers.
//
// Mark names beginning with "~" are reserved for replication metadata
// (the node's epoch and log position, see internal/replica): they ride
// the same marks map and are split back out by replica.SplitMetaMarks
// on load, so source names must never start with "~".
package snapshot

import (
	"bufio"
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

// magic opens every snapshot file; oldMagic names the formats before it.
var (
	magic    = [4]byte{'D', 'W', 'S', '5'}
	oldMagic = map[[4]byte]int{{'D', 'W', 'S', '4'}: 4, {'D', 'W', 'S', '3'}: 3, {'D', 'W', 'S', 'N'}: 2}
)

// ErrCorrupt reports a snapshot that cannot be trusted: bad magic,
// truncated payload, checksum mismatch, or a payload the decoder
// refuses. Callers distinguish it from I/O errors to decide between
// "fall back to older snapshot" and "retry the read".
var ErrCorrupt = errors.New("snapshot: corrupt or truncated")

// ErrOldFormat reports an intact file this build has no reader for; the
// error wrapping it names the format found.
var ErrOldFormat = errors.New("snapshot: old format")

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
// watermarks to w: header, manifest, sections. Every journal record with
// Seq ≤ marks[source] is already reflected in the relations and is
// skipped during replay.
func SaveMarks(w io.Writer, ms map[string]*relation.Relation, marks map[string]uint64) error {
	_, err := saveMarks(w, ms, marks)
	return err
}

func saveMarks(w io.Writer, ms map[string]*relation.Relation, marks map[string]uint64) (SaveStats, error) {
	var st SaveStats
	var sections []*relation.Section
	m := binary.AppendUvarint(make([]byte, 16, 4096), uint64(len(ms)))
	for _, name := range slices.Sorted(maps.Keys(ms)) {
		r := ms[name]
		m = r.AppendHeader(relation.AppendString(m, name))
		for pi := range r.NumPages() {
			sec, encoded := r.PageSection(pi)
			if encoded {
				st.PagesEncoded++
			} else {
				st.PagesReused++
			}
			m = binary.BigEndian.AppendUint32(binary.AppendUvarint(m, uint64(len(sec.Bytes))), sec.CRC)
			sections = append(sections, sec)
		}
	}
	m = binary.AppendUvarint(m, uint64(len(marks)))
	for _, s := range slices.Sorted(maps.Keys(marks)) {
		m = binary.AppendUvarint(relation.AppendString(m, s), marks[s])
	}
	copy(m[:4], magic[:])
	binary.BigEndian.PutUint32(m[4:8], crc32.ChecksumIEEE(m[16:]))
	binary.BigEndian.PutUint64(m[8:16], uint64(len(m)-16))
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(m) // a failed write sticks: Flush reports it
	for _, sec := range sections {
		bw.Write(sec.Bytes)
	}
	return st, bw.Flush()
}

// Load reads a relation map from r, discarding any watermarks.
func Load(r io.Reader) (algebra.MapState, error) {
	ms, _, err := LoadMarks(r)
	return ms, err
}

// maxPayload bounds what a length field may claim.
const maxPayload = 1 << 32

// LoadMarks reads a relation map and its watermarks from r, which must
// end where the snapshot does. Corrupt or truncated input fails with an
// error wrapping ErrCorrupt, a file of an earlier format with ErrOldFormat.
func LoadMarks(r io.Reader) (algebra.MapState, map[string]uint64, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if v, old := oldMagic[[4]byte(hdr[:4])]; old {
		return nil, nil, fmt.Errorf("%w: written by format v%d, not readable by this build", ErrOldFormat, v)
	} else if [4]byte(hdr[:4]) != magic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	length := binary.BigEndian.Uint64(hdr[8:16])
	if length > maxPayload {
		return nil, nil, fmt.Errorf("%w: implausible manifest length %d", ErrCorrupt, length)
	}
	manifest, err := ReadN(r, length)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: truncated manifest: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(manifest) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	rels, marks, err := decodeManifest(manifest)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: undecodable manifest: %w", ErrCorrupt, err)
	}
	ms := make(algebra.MapState, len(rels))
	for _, rel := range rels {
		for pi := range rel.pages {
			sec := &rel.pages[pi]
			if sec.Bytes, err = ReadN(r, rel.lengths[pi]); err != nil {
				return nil, nil, fmt.Errorf("%w: relation %q: page %d: truncated section: %v", ErrCorrupt, rel.name, pi, err)
			}
			if crc32.ChecksumIEEE(sec.Bytes) != sec.CRC {
				return nil, nil, fmt.Errorf("%w: relation %q: page %d: section checksum mismatch", ErrCorrupt, rel.name, pi)
			}
		}
		if ms[rel.name], err = relation.DecodePages(rel.attrs, rel.rows, rel.pages); err != nil {
			return nil, nil, fmt.Errorf("%w: relation %q: %w", ErrCorrupt, rel.name, err)
		}
	}
	if n, _ := io.ReadFull(r, hdr[:1]); n != 0 {
		return nil, nil, fmt.Errorf("%w: bytes after the last section", ErrCorrupt)
	}
	return ms, marks, nil
}

// manifestRelation is one relation's entry in the manifest: its header
// and, per page, the section's length and — in pages, whose Bytes wait to
// be read — its CRC.
type manifestRelation struct {
	name    string
	attrs   []string
	rows    uint64
	lengths []uint64
	pages   []relation.Section
}

func decodeManifest(b []byte) ([]manifestRelation, map[string]uint64, error) {
	n, b, err := relation.DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	var rels []manifestRelation
	for i, name := uint64(0), ""; i < n; i++ {
		if name, b, err = nextName(b, i == 0, name); err != nil {
			return nil, nil, err
		}
		rel := manifestRelation{name: name}
		if rel.attrs, rel.rows, b, err = relation.DecodeHeader(b); err != nil {
			return nil, nil, fmt.Errorf("relation %q: %w", name, err)
		}
		// One entry per row page (a page is what a Batch covers), each at
		// least a length byte and its CRC.
		np := (rel.rows + relation.BatchSize - 1) / relation.BatchSize
		if rel.rows > maxPayload || np > uint64(len(b))/5 {
			return nil, nil, fmt.Errorf("%w: relation %q: %d rows, %d bytes remain", relation.ErrEncoding, name, rel.rows, len(b))
		}
		rel.lengths, rel.pages = make([]uint64, np), make([]relation.Section, np)
		for pi := range rel.pages {
			if rel.lengths[pi], b, err = relation.DecodeUvarint(b); err != nil {
				return nil, nil, err
			}
			if rel.lengths[pi] > maxPayload || len(b) < 4 {
				return nil, nil, fmt.Errorf("%w: relation %q: page %d: bad or cut-short entry", relation.ErrEncoding, name, pi)
			}
			rel.pages[pi].CRC, b = binary.BigEndian.Uint32(b), b[4:]
		}
		rels = append(rels, rel)
	}
	if n, b, err = relation.DecodeUvarint(b); err != nil {
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
	return rels, marks, nil
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

// SaveStats is what one save cost: the file's size, the pages whose
// section it had to encode and those it found cached, the time to encode
// and write them to the temp file, and the temp file's fsync.
type SaveStats struct {
	Bytes        int64
	PagesEncoded int
	PagesReused  int
	Encode       time.Duration
	Sync         time.Duration
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
	if st, err = saveMarks(tmp, ms, marks); err != nil {
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
