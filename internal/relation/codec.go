package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
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
//	          uvarint row count, the rows in SortedRows order
//
// The encoding is canonical — equal relations encode to equal bytes, and
// the decoder accepts nothing but what the encoder writes — and the
// decoder is where outside input is validated: whatever the bytes say, it
// returns an error wrapping ErrEncoding, never panics, and checks every
// length against the bytes that remain before it allocates.

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

func decodeValue(b []byte, v *Value) ([]byte, error) {
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

// AppendBinary appends the relation's encoding to b.
func (r *Relation) AppendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.attrs)))
	for _, a := range r.attrs {
		b = AppendString(b, a)
	}
	b = binary.AppendUvarint(b, uint64(r.Len()))
	for _, t := range r.SortedRows() {
		for i := range t {
			b = appendValue(b, &t[i])
		}
	}
	return b
}

// DecodeBinary reads one relation off the front of b and returns the
// bytes after it.
func DecodeBinary(b []byte) (*Relation, []byte, error) {
	arity, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if arity > uint64(len(b)) {
		return nil, nil, malformed("%d attributes, %d bytes remain", arity, len(b))
	}
	attrs := make([]string, arity)
	for i := range attrs {
		if attrs[i], b, err = DecodeString(b); err != nil {
			return nil, nil, err
		}
	}
	n, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	// A value is at least its kind byte; the only row of no values is
	// the empty tuple.
	if n > 1 && n > uint64(len(b))/max(arity, 1) {
		return nil, nil, malformed("%d rows of %d values, %d bytes remain", n, arity, len(b))
	}
	r, err := newChecked(attrs, int(n))
	if err != nil {
		return nil, nil, malformed("%v", err)
	}
	var prev Tuple
	for range n {
		t := make(Tuple, arity)
		for i := range t {
			if b, err = decodeValue(b, &t[i]); err != nil {
				return nil, nil, err
			}
		}
		// Ascending order leaves Int(2) beside Float(2), which are one
		// value to the set: InsertOwned finds those.
		if (prev != nil && compareTuples(prev, t) >= 0) || !r.InsertOwned(t) {
			return nil, nil, malformed("row %v duplicated or out of order", t)
		}
		prev = t
	}
	return r, b, nil
}
