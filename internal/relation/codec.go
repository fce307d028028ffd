package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// This file is the one place a value's bytes are produced and parsed.
// Checkpoints, journal and replica-stream records and remote reports all
// carry relations in this encoding (big endian; uvarint as in
// encoding/binary, always in its shortest form):
//
//	value     kind byte, then  null: nothing | bool: 0 or 1
//	          | int: zig-zag varint | float: its 8 IEEE-754 bytes (NaN
//	          payloads and −0 survive) | string: uvarint length, bytes
//	relation  uvarint arity, arity × name (uvarint length, bytes),
//	          uvarint row count, the rows in Order
//	section   the rows of one row page, in storage order
//
// The relation encoding is canonical — equal relations encode to equal
// bytes — and the decoders accept nothing but what the encoders write.
// They are where outside input is validated: whatever the bytes say, a
// decoder returns an error wrapping ErrEncoding, never panics, and checks
// every length against the bytes that remain before it allocates.

// ErrEncoding is wrapped by every error the decoders return.
var ErrEncoding = errors.New("relation: malformed encoding")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrEncoding, fmt.Sprintf(format, args...))
}

// AppendString appends s as a uvarint length and its bytes: how the
// encoding writes every name.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// DecodeUvarint reads one shortest-form uvarint off the front of b.
func DecodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, malformed("bad or cut-short varint")
	}
	return v, b[n:], nil
}

// DecodeString reads what AppendString wrote.
func DecodeString(b []byte) (string, []byte, error) {
	n, b, err := DecodeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(b)) {
		return "", nil, malformed("string of %d bytes, %d remain", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

func appendValue(b []byte, v *Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindBool:
		if v.b {
			return append(b, 1)
		}
		return append(b, 0)
	case KindInt:
		return binary.AppendVarint(b, v.i)
	case KindFloat:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.f))
	case KindString:
		return AppendString(b, v.s)
	}
	return b
}

// decodeValue reads one value off the front of b into v.
func decodeValue(b []byte, v *Value) ([]byte, error) {
	*v = Value{}
	if len(b) == 0 {
		return nil, malformed("value cut short")
	}
	kind, b := Kind(b[0]), b[1:]
	var err error
	switch kind {
	case KindNull:
	case KindBool:
		if len(b) == 0 || b[0] > 1 {
			return nil, malformed("bad or cut-short bool")
		}
		v.b, b = b[0] == 1, b[1:]
	case KindInt:
		var u uint64
		if u, b, err = DecodeUvarint(b); err != nil {
			return nil, err
		}
		v.i = int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.AppendVarint wrote it
	case KindFloat:
		if len(b) < 8 {
			return nil, malformed("float cut short")
		}
		v.f, b = math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:]
	case KindString:
		if v.s, b, err = DecodeString(b); err != nil {
			return nil, err
		}
	default:
		return nil, malformed("unknown value kind %d", kind)
	}
	v.kind = kind
	return b, nil
}

// AppendHeader appends what precedes a relation's rows: arity, attribute
// names in column order, row count.
func (r *Relation) AppendHeader(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.attrs)))
	for _, a := range r.attrs {
		b = AppendString(b, a)
	}
	return binary.AppendUvarint(b, uint64(r.Len()))
}

// DecodeHeader reads what AppendHeader wrote. The names are not yet
// checked for being a schema; the arity is bounded by the bytes present.
func DecodeHeader(b []byte) (attrs []string, rows uint64, rest []byte, err error) {
	arity, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, 0, nil, err
	}
	if arity > uint64(len(b)) {
		return nil, 0, nil, malformed("%d attributes, %d bytes remain", arity, len(b))
	}
	attrs = make([]string, arity)
	for i := range attrs {
		if attrs[i], b, err = DecodeString(b); err != nil {
			return nil, 0, nil, err
		}
	}
	rows, b, err = DecodeUvarint(b)
	return attrs, rows, b, err
}

// decodeRow reads one row of len(t) values off the front of b into t.
func decodeRow(b []byte, t Tuple) ([]byte, error) {
	for i := range t {
		var err error
		if b, err = decodeValue(b, &t[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendBinary appends the relation's encoding to b. It sorts: this is the
// form of the relations that travel — the deltas in journal, stream and
// report records, a handful of rows whose bytes must not depend on the
// order they were inserted in. A checkpoint takes the stored relations
// page by page instead (PageSection).
func (r *Relation) AppendBinary(b []byte) []byte {
	b = r.AppendHeader(b)
	for _, i := range r.Order() {
		pg, k := r.rows.pages[i>>pageBits], int(i&pageMask)
		for c := range pg {
			v := pg[c].value(k)
			b = appendValue(b, &v)
		}
	}
	return b
}

// DecodeBinary reads one relation off the front of b and returns the
// bytes after it.
func DecodeBinary(b []byte) (*Relation, []byte, error) {
	attrs, n, b, err := DecodeHeader(b)
	if err != nil {
		return nil, nil, err
	}
	// A value is at least its kind byte; the only row of no values is
	// the empty tuple.
	if n > 1 && n > uint64(len(b))/uint64(max(len(attrs), 1)) {
		return nil, nil, malformed("%d rows of %d values, %d bytes remain", n, len(attrs), len(b))
	}
	r, err := newChecked(attrs, int(n))
	if err != nil {
		return nil, nil, malformed("%v", err)
	}
	t := make(Tuple, len(attrs))
	for range n {
		if b, err = decodeRow(b, t); err != nil {
			return nil, nil, err
		}
		// Ascending order leaves Int(2) beside Float(2), which are one
		// value to the set: Insert finds those.
		if !r.Insert(t) {
			return nil, nil, malformed("row %v duplicated", t)
		}
	}
	// The rows came in ascending order exactly when that is storage order.
	for i, row := range r.Order() {
		if row != int32(i) {
			return nil, nil, malformed("row %v out of order", r.rows.at(i))
		}
	}
	return r, b, nil
}

// Section is the encoded form of one row page: the page's rows in storage
// order, value by value as above, and the CRC32/IEEE of those bytes. It is
// derived from an immutable page and never written afterwards; it is kept
// in the page's slot, so a checkpoint encodes a page once for every
// version that shares it.
type Section struct {
	Bytes []byte
	CRC   uint32
}

// NumPages returns the number of row pages, each of which has a section.
func (r *Relation) NumPages() int { return r.rows.numPages() }

// PageSection returns the section of row page pi, and whether this call
// had to encode it — no relation sharing the page had asked before, or the
// page was written since.
func (r *Relation) PageSection(pi int) (sec *Section, encoded bool) {
	sl := r.slot(pi)
	if sec = sl.section.Load(); sec != nil {
		return sec, false
	}
	var b []byte
	pg := r.rows.pages[pi]
	for k := range r.rows.rowsOn(pi) {
		for c := range pg {
			v := pg[c].value(k)
			b = appendValue(b, &v)
		}
	}
	b = bytes.Clone(b) // the cache keeps it: no slack from append's doubling
	sl.section.CompareAndSwap(nil, &Section{Bytes: b, CRC: crc32.ChecksumIEEE(b)})
	return sl.section.Load(), true
}

// DecodePages builds the relation over attrs whose row page k holds the
// rows of sections[k], n rows in all: every page full but the last, no
// section with a byte to spare, no row twice. The caller has checked each
// section against its CRC and bounded their number by the bytes it was
// handed; the sections become the pages' cached ones, so the caller must
// not write to them afterwards.
func DecodePages(attrs []string, n uint64, sections []Section) (*Relation, error) {
	if np := uint64(len(sections)); n > np<<pageBits || (n+pageMask)>>pageBits != np {
		return nil, malformed("%d rows in %d pages", n, np)
	}
	r, err := newChecked(attrs, int(n))
	if err != nil {
		return nil, malformed("%v", err)
	}
	t := make(Tuple, len(attrs))
	for pi := range sections {
		b := sections[pi].Bytes
		for range min(pageLen, int(n)-pi<<pageBits) {
			if b, err = decodeRow(b, t); err != nil {
				return nil, fmt.Errorf("page %d: %w", pi, err)
			}
			if !r.Insert(t) {
				return nil, fmt.Errorf("page %d: %w", pi, malformed("row %v is in the relation twice", t))
			}
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("page %d: %w", pi, malformed("%d bytes after its rows", len(b)))
		}
		r.slot(pi).section.Store(&sections[pi])
	}
	return r, nil
}
