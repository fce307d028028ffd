// Package journal is the integrator's write-ahead log. Every source
// notification is appended — length-prefixed, CRC32-checksummed, and
// fsync'd — before its refresh runs, so a crashed integrator recovers
// by loading the latest snapshot and replaying the journal suffix past
// the snapshot's per-source watermarks. Recovery therefore needs the
// warehouse's own disk state and the reported updates only, never a
// source connection: it is the paper's update-independence property
// (w' = W(u(W⁻¹(w))), Definition 4.1) made crash-safe.
//
// On-disk layout:
//
//	magic "DWJ4" (4 bytes)
//	repeated records:
//	    uint32 payload length (big endian)
//	    uint32 CRC32/IEEE of payload
//	    payload: source name, uvarint seq, epoch, lsn, then the update:
//	             its insert sets and its delete sets, each a
//	             snapshot.AppendState of the non-empty ones
//
// Names, uvarints and relations are package relation's encoding
// (relation/codec.go): a relation is its header and its row pages'
// sections in storage order, the same sections a checkpoint holds. A
// journal of an earlier format (v3: magic "DWJ3", relations as sorted
// values row by row; v2: magic "DWJL", gob payloads) is refused with
// ErrOldFormat, by name and not as corruption.
//
// A torn tail — a record cut short by a crash mid-append — is detected
// by the length prefix and tolerated: replay stops cleanly before it
// and the next append truncates it away. A checksum mismatch or an
// implausible length earlier in the file means real corruption and
// fails replay with ErrCorrupt.
//
// A checkpoint makes a prefix of the journal redundant. Writer.DropPrefix
// compacts the file to the records appended after the checkpoint's cut
// (copied byte for byte behind a fresh magic, swapped in by rename), so
// the checkpoint itself can run beside appends; replay skips records a
// snapshot's watermarks already cover, so a crash on either side of the
// swap recovers the same state.
//
// The same frame format doubles as the replication wire format: a
// leader ships journal records to followers as a bare sequence of
// frames (no magic), read incrementally by StreamReader. Epoch and LSN
// are the replication coordinates — the leadership term a record was
// committed under and its position in the leader's log; both are zero
// on a standalone server.
package journal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/trace"
)

// magic opens every journal file; oldMagic names the formats before it.
var (
	magic    = [4]byte{'D', 'W', 'J', '4'}
	oldMagic = map[[4]byte]int{{'D', 'W', 'J', '3'}: 3, {'D', 'W', 'J', 'L'}: 2}
)

// maxRecord bounds one record's payload; longer prefixes are treated as
// corruption rather than honored with a giant allocation.
const maxRecord = 1 << 28

// ErrCorrupt reports a record that is present in full but fails its
// checksum (or carries an implausible length) — unlike a torn tail,
// this means the file cannot be trusted past that point.
var ErrCorrupt = errors.New("journal: corrupt record")

// ErrOldFormat reports an intact journal this build has no reader for.
var ErrOldFormat = errors.New("journal: old format")

// Record is one journaled notification: the reporting source, its
// per-source sequence number, and the update it reported. Epoch and
// LSN position the record in a replicated deployment — the leadership
// term it was committed under and its slot in the leader's replication
// log; both stay zero on standalone servers.
type Record struct {
	Source string
	Seq    uint64
	Epoch  uint64
	LSN    uint64
	Update *catalog.Update
}

// AppendUpdate appends an update's insert and delete sets to b. With
// DecodeUpdate it is the single update codec of the repo: the journal's
// records, the replica stream and the remote reporting protocol
// (internal/remote) all ride on it, so an update round-trips
// identically whether it crossed a disk or a network boundary.
func AppendUpdate(b []byte, u *catalog.Update) []byte {
	ins, del := map[string]*relation.Relation{}, map[string]*relation.Relation{}
	for _, name := range u.Touched() {
		if r := u.Inserts(name); r != nil && !r.IsEmpty() {
			ins[name] = r
		}
		if r := u.Deletes(name); r != nil && !r.IsEmpty() {
			del[name] = r
		}
	}
	return snapshot.AppendState(snapshot.AppendState(b, ins), del)
}

// DecodeUpdate reads the update that b is, re-aligning each row to the
// schema's attribute order and rejecting references to relations the
// database does not declare. Bytes the decoder refuses fail with an
// error wrapping relation.ErrEncoding.
func DecodeUpdate(b []byte, db *catalog.Database) (*catalog.Update, error) {
	ins, b, err := snapshot.DecodeState(b)
	if err != nil {
		return nil, err
	}
	del, b, err := snapshot.DecodeState(b)
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the update", relation.ErrEncoding, len(b))
	}
	u := catalog.NewUpdate()
	restore := func(m algebra.MapState, schedule func(string, *catalog.Database, relation.Tuple) error) error {
		for name, rel := range m {
			sc, ok := db.Schema(name)
			if !ok {
				return fmt.Errorf("journal: record references unknown relation %q: %w", name, algebra.ErrUnknownRelation)
			}
			attrs := sc.AttrNames()
			for t := range rel.All() {
				aligned := make(relation.Tuple, len(attrs))
				for i, a := range attrs {
					p, ok := rel.Pos(a)
					if !ok {
						return fmt.Errorf("journal: relation %s row missing attribute %q", name, a)
					}
					aligned[i] = t[p]
				}
				if err := schedule(name, db, aligned); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := restore(ins, u.Insert); err != nil {
		return nil, err
	}
	if err := restore(del, u.Delete); err != nil {
		return nil, err
	}
	return u, nil
}

// EncodeRecord frames one record onto w exactly as Append does on disk:
// length prefix, CRC32, payload. It is the encode half of the
// replication stream — a leader frames log entries onto an HTTP
// response body and a follower decodes them with StreamReader, so a
// record crosses the network bit-identical to how it crosses a crash.
func EncodeRecord(w io.Writer, rec Record) error {
	b, err := Frame(rec)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Frame encodes rec as the frame Append writes and EncodeRecord ships.
func Frame(rec Record) ([]byte, error) {
	b := relation.AppendString(make([]byte, 8, 256), rec.Source)
	for _, v := range [...]uint64{rec.Seq, rec.Epoch, rec.LSN} {
		b = binary.AppendUvarint(b, v)
	}
	b = AppendUpdate(b, rec.Update)
	if len(b)-8 > maxRecord {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds limit", len(b)-8)
	}
	binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-8))
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[8:]))
	return b, nil
}

// Writer appends records to a journal file with write-ahead semantics:
// Append returns only after the record (and everything before it) is
// fsync'd, so a crash after Append cannot lose the record. Safe for
// concurrent use.
type Writer struct {
	mu   lockrank.Mutex[lockrank.Journal]
	f    *os.File
	path string
	last int64 // bytes of the last record at the file's end that Withdraw may take back (0: none)
	err  error // why appends are refused: a Withdraw failed
}

// Open opens (or creates) the journal at path for appending. An
// existing file keeps its records; a torn tail from a previous crash is
// truncated away so new appends start on a clean record boundary.
func Open(path string) (*Writer, error) {
	// A compaction cut short by a crash never reached its rename.
	if err := os.Remove(path + compactSuffix); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, last, err := scan(f, nil, nil)
	if err != nil && !errors.Is(err, ErrTorn) {
		f.Close()
		return nil, err
	}
	if errors.Is(err, ErrTorn) {
		if terr := f.Truncate(end); terr != nil {
			f.Close()
			return nil, terr
		}
	}
	// Position at the clean boundary before writing anything (scan left
	// the offset wherever reading stopped).
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if end == 0 {
		// Fresh (or empty) file: write the magic.
		if _, err := f.Write(magic[:]); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Writer{f: f, path: path, last: last}, nil
}

// Append journals one record: encode, frame, write, fsync. The chaos
// points model a crash before the write ("journal.append") and between
// write and sync ("journal.sync").
func (w *Writer) Append(rec Record) error {
	return w.AppendContext(context.Background(), rec)
}

// AppendContext is Append with lineage: when ctx carries a recording
// trace span, the append runs under a "journal.append" child span
// annotated with the framed record size and the fsync's share of the
// wall time — the durability hop of a report's end-to-end trace.
func (w *Writer) AppendContext(ctx context.Context, rec Record) error {
	frame, err := Frame(rec)
	if err != nil {
		return err
	}
	return w.AppendFrame(ctx, frame)
}

// AppendFrame is AppendContext for a record the caller framed with Frame,
// to hand the same bytes on or to encode off the goroutine that waits.
func (w *Writer) AppendFrame(ctx context.Context, frame []byte) error {
	_, sp := trace.StartSpan(ctx, "journal.append")
	defer sp.End()
	sp.SetAttrInt("bytes", int64(len(frame)))
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: writer is closed")
	}
	if w.err != nil {
		return w.err
	}
	w.last = 0 // from here on the last record is this one, or none
	if err := chaos.Point("journal.append"); err != nil {
		return err
	}
	n, err := w.f.Write(frame)
	w.last = int64(n) // a short write is withdrawn like a whole one
	if err != nil {
		return err
	}
	if err := chaos.Point("journal.sync"); err != nil {
		return err
	}
	var syncStart time.Time
	if sp.Recording() {
		syncStart = time.Now()
	}
	err = w.f.Sync()
	if sp.Recording() {
		sp.SetAttrInt("fsyncMicros", time.Since(syncStart).Microseconds())
	}
	return err
}

// Withdraw takes back the record of a commit that failed after its append
// began: it truncates what the last append wrote (after Open, the file's
// last record) and fsyncs. A DropPrefix since moves the record along; one
// that dropped it leaves nothing to withdraw. A failed Withdraw refuses
// every later append, so an unacknowledged record is only ever the
// journal's last. The chaos point "journal.withdraw" models a crash first.
func (w *Writer) Withdraw() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: writer is closed")
	}
	if w.last == 0 {
		return nil
	}
	err := chaos.Point("journal.withdraw")
	var end int64
	if err == nil {
		end, err = w.f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = w.truncateLocked(end - w.last)
	}
	if err != nil {
		w.err = fmt.Errorf("journal: a withdraw failed, appends are refused: %w", err)
		return w.err
	}
	return nil
}

// Reset truncates the journal to empty (magic only). Called after a
// checkpoint snapshot has been durably renamed into place: everything
// the journal held is now reflected in the snapshot and its watermarks,
// so the journal can restart from zero length instead of growing
// forever.
func (w *Writer) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: writer is closed")
	}
	return w.truncateLocked(int64(len(magic)))
}

// truncateLocked cuts the file to size bytes, which leaves no last record
// to withdraw, and fsyncs.
func (w *Writer) truncateLocked(size int64) error {
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	if _, err := w.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.last = 0
	return nil
}

// Offset returns the journal's current end: the file offset just past
// the last appended record. A caller that serializes its appends reads
// it right after one to learn where that record ends; DropPrefix takes
// such an offset.
func (w *Writer) Offset() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("journal: writer is closed")
	}
	return w.f.Seek(0, io.SeekCurrent)
}

// compactSuffix names the temp file DropPrefix builds beside the
// journal; Open removes one left by a crash.
const compactSuffix = ".compact"

// DropPrefix compacts the journal to the records appended after off (an
// earlier Offset): a checkpoint cut at off covers everything before it.
// The suffix is copied byte for byte behind a fresh magic into a temp
// file, which is fsync'd and renamed over the journal's path; the
// writer then continues on the new file. Appends wait on the writer's
// lock for the swap, so none is lost or written twice, and a crash
// leaves either the old complete journal or the new one. An empty
// suffix is a plain Reset. Offsets taken before the call are void
// after it. The chaos point "journal.compact" models a crash between
// the temp file's fsync and the rename.
func (w *Writer) DropPrefix(off int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: writer is closed")
	}
	end, err := w.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	if off < int64(len(magic)) || off > end {
		return fmt.Errorf("journal: drop prefix at %d outside [%d, %d]", off, len(magic), end)
	}
	if off == end {
		return w.truncateLocked(int64(len(magic)))
	}
	tmpPath := w.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	swapped := false
	defer func() {
		if !swapped {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	if _, err := tmp.Write(magic[:]); err != nil {
		return err
	}
	// SectionReader reads with ReadAt, leaving the append offset of w.f
	// where it is should the compaction fail.
	if _, err := io.Copy(tmp, io.NewSectionReader(w.f, off, end-off)); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := chaos.Point("journal.compact"); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		return err
	}
	// From here on the path names the new file, so appends must go to
	// it even if the directory fsync (best effort, as in package
	// snapshot) fails: the old file is no longer reachable by recovery.
	swapped = true
	if d, err := os.Open(filepath.Dir(w.path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	w.f.Close() // read and fsync'd up to end; nothing of it is needed
	w.f = tmp
	return nil
}

// Path returns the journal's file path.
func (w *Writer) Path() string { return w.path }

// Close syncs and closes the journal file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ErrTorn reports a record cut short mid-frame: the benign truncation
// signature of a crash during append, or of a network connection cut
// during a replication stream. The bytes before it are trustworthy —
// recovery resumes from the last complete record, it never applies a
// partial one. (Replay converts a torn tail into a (count, torn=true,
// nil) result and Open truncates it away; StreamReader surfaces it to
// the follower, which resumes from its durable watermark.)
var ErrTorn = errors.New("journal: torn record")

// readFrame reads one length-prefixed, checksummed frame and returns
// its payload: io.EOF at a clean record boundary, ErrTorn when the
// frame is cut short, ErrCorrupt on a checksum or length violation.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean boundary
		}
		return nil, fmt.Errorf("%w: partial length prefix", ErrTorn)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	wantCRC := binary.BigEndian.Uint32(hdr[4:8])
	if length > maxRecord {
		return nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, length)
	}
	payload, err := snapshot.ReadN(r, uint64(length))
	if err != nil {
		return nil, fmt.Errorf("%w: record cut short", ErrTorn)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// decodeRecord decodes one frame payload against db. The frame's
// checksum held, so bytes the decoder refuses are corruption.
func decodeRecord(b []byte, db *catalog.Database) (rec Record, err error) {
	fail := func(err error) (Record, error) {
		if errors.Is(err, relation.ErrEncoding) {
			err = fmt.Errorf("%w: undecodable record: %w", ErrCorrupt, err)
		}
		return Record{}, err
	}
	if rec.Source, b, err = relation.DecodeString(b); err != nil {
		return fail(err)
	}
	for _, v := range [...]*uint64{&rec.Seq, &rec.Epoch, &rec.LSN} {
		if *v, b, err = relation.DecodeUvarint(b); err != nil {
			return fail(err)
		}
	}
	if rec.Update, err = DecodeUpdate(b, db); err != nil {
		return fail(err)
	}
	return rec, nil
}

// StreamReader decodes a bare sequence of journal frames (no magic) one
// record at a time — the decode half of the replication stream. Next
// returns io.EOF at a clean frame boundary, an error wrapping ErrTorn
// when the stream was cut mid-record (every record returned before it
// is complete and checksum-valid — a follower applies those and
// re-requests from its watermark), and ErrCorrupt on a checksum
// mismatch.
type StreamReader struct {
	r  io.Reader
	db *catalog.Database
}

// NewStreamReader reads journal frames from r, decoding updates against
// db.
func NewStreamReader(r io.Reader, db *catalog.Database) *StreamReader {
	return &StreamReader{r: r, db: db}
}

// Next returns the next complete record, io.EOF at a clean end of
// stream, or ErrTorn/ErrCorrupt.
func (s *StreamReader) Next() (Record, error) {
	payload, err := readFrame(s.r)
	if err != nil {
		return Record{}, err
	}
	return decodeRecord(payload, s.db)
}

// scan walks the journal from the start, calling fn for each complete,
// checksum-valid record (fn may be nil). It returns the offset just
// past the last valid record and that record's length (0 when there is
// none); a torn tail is reported as ErrTorn with the offset still
// pointing at the clean boundary.
func scan(f io.ReadSeeker, db *catalog.Database, fn func(Record) error) (end, last int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := newCountingReader(f)
	var mg [4]byte
	if _, err := io.ReadFull(r, mg[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, 0, nil // empty file: fresh journal
		}
		return 0, 0, ErrTorn
	}
	if v, old := oldMagic[mg]; old {
		return 0, 0, fmt.Errorf("%w: written by format v%d, not readable by this build", ErrOldFormat, v)
	}
	if mg != magic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	end = r.n
	for {
		payload, err := readFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return end, last, nil // clean end of journal
			}
			if errors.Is(err, ErrTorn) {
				return end, last, ErrTorn // cut short by a crash
			}
			return end, last, fmt.Errorf("%w at offset %d", err, end)
		}
		if fn != nil {
			rec, err := decodeRecord(payload, db)
			if err != nil {
				return end, last, fmt.Errorf("%w (offset %d)", err, end)
			}
			if err := fn(rec); err != nil {
				return end, last, err
			}
		}
		last, end = r.n-end, r.n
	}
}

// countingReader tracks the absolute offset consumed so far.
type countingReader struct {
	r io.Reader
	n int64
}

func newCountingReader(r io.Reader) *countingReader { return &countingReader{r: r} }

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Replay reads the journal at path and calls fn for every record, in
// append order. A missing file is an empty journal (fresh deployment).
// A torn tail is tolerated and reported through torn; corruption before
// the tail fails with an error wrapping ErrCorrupt. If fn returns an
// error, replay stops and returns it.
func Replay(path string, db *catalog.Database, fn func(Record) error) (n int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close()
	count := 0
	wrapped := func(rec Record) error {
		count++
		return fn(rec)
	}
	_, _, err = scan(f, db, wrapped)
	if errors.Is(err, ErrTorn) {
		return count, true, nil
	}
	return count, false, err
}
