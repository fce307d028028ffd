package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// This file is the one place a value's bytes are produced and parsed.
// Checkpoints, journal and replica-stream records and remote reports all
// carry relations in these encodings (big endian; uvarint as in
// encoding/binary, always in its shortest form):
//
//	value     kind byte, then  null: nothing | bool: 0 or 1
//	          | int: zig-zag varint | float: its 8 IEEE-754 bytes (NaN
//	          payloads and −0 survive) | string: uvarint length, bytes
//	relation  uvarint arity, arity × name (uvarint length, bytes),
//	          uvarint row count n, then the section of each of its
//	          ⌈n/1024⌉ row pages, in storage order
//	section   one row page of n rows (the reader knows n): a column
//	          after the other, each a layout tag and the column's cells
//
// A section column is the page's column vector, packed. Its fields are
// bit-packed least significant bit first, the last byte padded with
// zeros, and a NULL row has no cell in any payload:
//
//	tag 5       every row NULL; nothing follows
//	tag 0       ColAny: a value per row as above, NULLs included
//	tag k       typed layout k (1 bool, 2 int, 3 float, 4 string), no
//	            row NULL; tag k|8: a null bitmap of ⌈n/8⌉ bytes follows,
//	            marking some rows but not all; then the cells:
//	  bool      a bit each
//	  int       zig-zag varint minimum, a width byte w = bits(max − min),
//	            each cell's offset from the minimum in w bits
//	  float     each cell's 8 IEEE-754 bytes
//	  string    uvarint d, d × (uvarint length, bytes): the strings the
//	            cells use, in the order they are first used; then each
//	            cell's index among them in bits(d − 1) bits
//
// A checkpoint holds the same sections, each under its own checksum
// (PageSection). Decode ∘ encode and encode ∘ decode are identities on
// what the decoder accepts: a relation decodes to its rows, bit for bit
// and in storage order, and the decoders accept nothing but what the
// encoders write: no width wider than needed, no minimum that is not one,
// no dictionary string unused, repeated or out of first-use order, no
// padding bit set, no bitmap without a NULL. They are where outside input
// is validated: whatever the bytes say, a decoder returns an error
// wrapping ErrEncoding, never panics, and checks every length against the
// bytes that remain before it allocates.

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
		v.i = unzigzag(u)
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

// unzigzag undoes the zig-zag mapping binary.AppendVarint writes.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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

// AppendBinary appends the relation's encoding to b: its header, then each
// row page's section in storage order. It is the form of the relations
// that travel — the deltas in journal, stream and report records.
func (r *Relation) AppendBinary(b []byte) []byte {
	b = r.AppendHeader(b)
	for pi, pg := range r.rows.pages {
		b = pg.appendSection(b, r.rows.rowsOn(pi))
	}
	return b
}

// DecodeBinary reads one relation off the front of b and returns the
// bytes after it. Its pages keep no cached section: that would alias b.
func DecodeBinary(b []byte) (*Relation, []byte, error) {
	attrs, n, b, err := DecodeHeader(b)
	if err != nil {
		return nil, nil, err
	}
	// A page is at least a tag per column; the only row of no columns is
	// the empty tuple.
	pages := pagesOf(n)
	if len(attrs) == 0 && n > 1 || len(attrs) > 0 && pages > uint64(len(b))/uint64(len(attrs)) {
		return nil, nil, malformed("%d rows of %d columns, %d bytes remain", n, len(attrs), len(b))
	}
	r, err := newChecked(attrs, int(n))
	if err != nil {
		return nil, nil, malformed("%v", err)
	}
	d := new(pageDecoder)
	for pi := range pages {
		if b, err = r.decodePage(b, int(n), d); err != nil {
			return nil, nil, fmt.Errorf("page %d: %w", pi, err)
		}
	}
	return r, b, nil
}

// Section is the encoded form of one row page, as the file comment lays it
// out, and the CRC32/IEEE of those bytes. It is derived from an immutable
// page and never written afterwards; it is kept in the page's slot, so a
// checkpoint encodes a page once for every version that shares it.
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
	b := r.rows.pages[pi].appendSection(nil, r.rows.rowsOn(pi))
	b = bytes.Clone(b) // the cache keeps it: no slack from append's doubling
	sl.section.CompareAndSwap(nil, &Section{Bytes: b, CRC: crc32.ChecksumIEEE(b)})
	return sl.section.Load(), true
}

// SectionBytes returns the length of the relation's sections — what a
// checkpoint holds of its rows — encoding those no relation sharing the
// page has asked for yet.
func (r *Relation) SectionBytes() int64 {
	var n int64
	for pi := range r.NumPages() {
		sec, _ := r.PageSection(pi)
		n += int64(len(sec.Bytes))
	}
	return n
}

// The section column tags the file comment lists beside the ColKinds.
const (
	tagAllNull = 5
	tagBitmap  = 8
)

// appendSection appends the section of the page's first n rows.
func (pg rowPage) appendSection(b []byte, n int) []byte {
	for c := range pg {
		b = pg[c].appendSection(b, n)
	}
	return b
}

// appendSection appends the section column of the column's first n rows.
func (c *column) appendSection(b []byte, n int) []byte {
	nulls := c.nullCount(n)
	switch {
	case nulls == n || c.kind == ColAny && c.any == nil:
		return append(b, tagAllNull)
	case c.kind == ColAny:
		b = append(b, byte(ColAny))
		for i := range c.any[:n] {
			b = appendValue(b, &c.any[i])
		}
		return b
	case nulls == 0:
		b = append(b, byte(c.kind))
	default:
		b = append(b, byte(c.kind)|tagBitmap)
		for i := 0; i < n; i += 8 {
			b = append(b, byte(c.nulls[i>>6]>>(i&63))&byte(1<<min(8, n-i)-1))
		}
	}
	p := bitPacker{b: b}
	switch c.kind {
	case ColBool:
		for i, v := range c.bools[:n] {
			if !c.isNull(i) {
				var bit uint64
				if v {
					bit = 1
				}
				p.put(bit, 1)
			}
		}
	case ColInt:
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i, v := range c.ints[:n] {
			if !c.isNull(i) {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		w := uint(bits.Len64(uint64(hi) - uint64(lo)))
		p.b = append(binary.AppendVarint(p.b, lo), byte(w))
		for i, v := range c.ints[:n] {
			if !c.isNull(i) {
				p.put(uint64(v)-uint64(lo), w)
			}
		}
	case ColFloat:
		for i, v := range c.floats[:n] {
			if !c.isNull(i) {
				p.b = binary.BigEndian.AppendUint64(p.b, math.Float64bits(v))
			}
		}
	case ColString:
		// rank[code]: 1 + the code's place in first-use order, once used.
		rank, used := make([]int32, len(c.dict.vals)), make([]int32, 0, min(n, len(c.dict.vals)))
		for i, code := range c.codes[:n] {
			if !c.isNull(i) && rank[code] == 0 {
				used = append(used, code)
				rank[code] = int32(len(used))
			}
		}
		p.b = binary.AppendUvarint(p.b, uint64(len(used)))
		for _, code := range used {
			p.b = AppendString(p.b, c.dict.vals[code])
		}
		w := uint(bits.Len(uint(len(used) - 1)))
		for i, code := range c.codes[:n] {
			if !c.isNull(i) {
				p.put(uint64(rank[code]-1), w)
			}
		}
	}
	return p.flush()
}

// nullCount returns the number of NULLs among the column's first n rows.
func (c *column) nullCount(n int) int {
	if c.nulls == nil {
		return 0
	}
	k := 0
	for _, w := range c.nulls[:n>>6] {
		k += bits.OnesCount64(w)
	}
	if r := n & 63; r != 0 {
		k += bits.OnesCount64(c.nulls[n>>6] & (1<<r - 1))
	}
	return k
}

// bitPacker appends fields of up to 64 bits to b, least significant bit
// first.
type bitPacker struct {
	b   []byte
	acc uint64 // the n bits not yet appended
	n   uint
}

// put appends the w low bits of v, which has no higher bit set.
func (p *bitPacker) put(v uint64, w uint) {
	if w == 0 {
		return
	}
	p.acc |= v << p.n
	if p.n+w < 64 {
		p.n += w
		return
	}
	p.b = binary.LittleEndian.AppendUint64(p.b, p.acc)
	spill := p.n + w - 64
	p.acc, p.n = 0, spill
	if spill > 0 {
		p.acc = v >> (w - spill)
	}
}

// flush appends the bits left, the last byte padded with zeros, and
// returns the bytes.
func (p *bitPacker) flush() []byte {
	for ; p.n > 0; p.n -= min(p.n, 8) {
		p.b = append(p.b, byte(p.acc))
		p.acc >>= 8
	}
	return p.b
}

// DecodePages builds the relation over attrs whose row page k holds the
// rows of sections[k], n rows in all: every page full but the last, no
// section with a byte to spare, no row twice. The pages take the layouts
// the sections were written from, and each row's hash is summed a column
// at a time. The caller has checked each section against its CRC and
// bounded their number by the bytes it was handed; the sections become the
// pages' cached ones, so the caller must not write to them afterwards.
func DecodePages(attrs []string, n uint64, sections []Section) (*Relation, error) {
	if np := uint64(len(sections)); pagesOf(n) != np {
		return nil, malformed("%d rows in %d pages", n, np)
	}
	r, err := newChecked(attrs, int(n))
	if err != nil {
		return nil, malformed("%v", err)
	}
	d := new(pageDecoder)
	for pi := range sections {
		rest, err := r.decodePage(sections[pi].Bytes, int(n), d)
		if err == nil && len(rest) != 0 {
			err = malformed("%d bytes after its columns", len(rest))
		}
		if err != nil {
			return nil, fmt.Errorf("page %d: %w", pi, err)
		}
		r.slot(pi).section.Store(&sections[pi])
	}
	return r, nil
}

// pagesOf returns ⌈n/pageLen⌉ without rounding n up, which could wrap.
func pagesOf(n uint64) uint64 { return n>>pageBits + min(n&pageMask, 1) }

// pageDecoder is what the decoders reuse from one page and column to the
// next.
type pageDecoder struct {
	hashes [pageLen]uint64 // the page's row hashes, summed a column at a time
	dict   []uint64        // the hash of each string of a dictionary
	seen   map[string]struct{}
	text   []byte // a dictionary's strings, end to end
	ends   []int
}

// decodePage appends the next page of a relation of n rows to r from the
// section at the front of b — the columns, the rows' hashes and their
// membership — and returns the bytes after it. A row equal to an earlier
// one shares its hash, so it is found in its own chain.
func (r *Relation) decodePage(b []byte, n int, d *pageDecoder) ([]byte, error) {
	base := r.rows.n
	h := d.hashes[:min(pageLen, n-base)]
	clear(h)
	pg := make(rowPage, len(r.attrs))
	for c := range pg {
		var err error
		if b, err = pg[c].decode(b, h, d); err != nil {
			return nil, fmt.Errorf("column %q: %w", r.attrs[c], err)
		}
	}
	r.rows.pages, r.rows.n = append(r.rows.pages, pg), base+len(h)
	for _, hk := range h {
		r.set.hashes.append(hk)
	}
	r.set.coverRows()
	for i := base; i < r.rows.n; i++ {
		for j := r.set.after(int32(i)); j >= 0; j = r.set.after(j) {
			if r.rows.sameCols(i, int(j), allCols(len(r.attrs))) {
				return nil, malformed("row %v is in the relation twice", r.rows.at(i))
			}
		}
	}
	return b, nil
}

// decode reads the section column of the len(h) rows of a page off the
// front of b into c, a zero column, and adds each row's value hash to h.
func (c *column) decode(b []byte, h []uint64, d *pageDecoder) ([]byte, error) {
	if len(b) == 0 {
		return nil, malformed("column cut short")
	}
	tag, b := b[0], b[1:]
	switch kind := ColKind(tag &^ tagBitmap); {
	case tag == tagAllNull:
		c.nulls = new(nullBits)
		hn := Null().hash64()
		for i := range h {
			c.nulls.set(i)
			h[i] += hn
		}
		return b, nil
	case tag == byte(ColAny):
		return c.decodeAny(b, h)
	case kind == ColAny || kind > ColString:
		return nil, malformed("unknown column tag %d", tag)
	default:
		c.kind = kind
	}
	m := len(h) // the cells that are not NULL
	if tag&tagBitmap != 0 {
		var err error
		if b, err = c.decodeNulls(b, h); err != nil {
			return nil, err
		}
		m -= c.nullCount(len(h))
	}
	switch c.kind {
	case ColBool:
		return c.decodeBools(b, h, m)
	case ColInt:
		return c.decodeInts(b, h, m)
	case ColFloat:
		return c.decodeFloats(b, h, m)
	default:
		return c.decodeStrings(b, h, m, d)
	}
}

// decodeAny reads a ColAny column: a value per row, not all of them NULL.
func (c *column) decodeAny(b []byte, h []uint64) ([]byte, error) {
	if len(b) < len(h) {
		return nil, malformed("%d values in %d bytes", len(h), len(b))
	}
	c.any = make([]Value, len(h))
	nulls := 0
	for i := range c.any {
		var err error
		if b, err = decodeValue(b, &c.any[i]); err != nil {
			return nil, err
		}
		if c.any[i].kind == KindNull {
			if c.nulls == nil {
				c.nulls = new(nullBits)
			}
			c.nulls.set(i)
			nulls++
		}
		h[i] += c.any[i].hash64()
	}
	if nulls == len(h) {
		return nil, malformed("a ColAny column of NULLs only")
	}
	return b, nil
}

// decodeNulls reads the null bitmap of a typed column, which must mark some
// rows and not all, and adds the NULL hash to theirs in h.
func (c *column) decodeNulls(b []byte, h []uint64) ([]byte, error) {
	n := len(h)
	nb := (n + 7) / 8
	if len(b) < nb {
		return nil, malformed("null bitmap cut short")
	}
	c.nulls = new(nullBits)
	for k, x := range b[:nb] {
		c.nulls[k>>3] |= uint64(x) << (8 * (k & 7))
	}
	if r := n & 7; r != 0 && b[nb-1]>>r != 0 {
		return nil, malformed("null bitmap padded with ones")
	}
	if k := c.nullCount(n); k == 0 || k == n {
		return nil, malformed("null bitmap of %d NULLs in %d rows", k, n)
	}
	hn := Null().hash64()
	for i := range h {
		if c.nulls.get(i) {
			h[i] += hn
		}
	}
	return b[nb:], nil
}

func (c *column) decodeBools(b []byte, h []uint64, m int) ([]byte, error) {
	field, b, err := packed(b, m, 1)
	if err != nil {
		return nil, err
	}
	c.bools = make([]bool, len(h))
	br := newBitReader(field, 1)
	for i := range c.bools {
		if !c.isNull(i) {
			c.bools[i] = br.next() == 1
			h[i] += Bool(c.bools[i]).hash64()
		}
	}
	return b, nil
}

// decodeInts reads a frame of reference — the minimum, the width — and
// the offsets from it, which must start at the minimum and need the width.
func (c *column) decodeInts(b []byte, h []uint64, m int) ([]byte, error) {
	u, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	lo := unzigzag(u)
	if len(b) == 0 || b[0] > 64 {
		return nil, malformed("bad or missing width")
	}
	w := uint(b[0])
	field, b, err := packed(b[1:], m, w)
	if err != nil {
		return nil, err
	}
	c.ints = make([]int64, len(h))
	br, minOff, maxOff := newBitReader(field, w), ^uint64(0), uint64(0)
	for i := range c.ints {
		if !c.isNull(i) {
			off := br.next()
			minOff, maxOff = min(minOff, off), max(maxOff, off)
			c.ints[i] = int64(uint64(lo) + off)
			h[i] += Int(c.ints[i]).hash64()
		}
	}
	if minOff != 0 || uint(bits.Len64(maxOff)) != w || maxOff > math.MaxInt64-uint64(lo) {
		return nil, malformed("ints %d + [%d, %d] in %d bits: not from the minimum, not in the narrowest width, or past MaxInt64", lo, minOff, maxOff, w)
	}
	return b, nil
}

func (c *column) decodeFloats(b []byte, h []uint64, m int) ([]byte, error) {
	if len(b) < 8*m {
		return nil, malformed("%d floats in %d bytes", m, len(b))
	}
	c.floats = make([]float64, len(h))
	for i := range c.floats {
		if !c.isNull(i) {
			c.floats[i], b = math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:]
			h[i] += Float(c.floats[i]).hash64()
		}
	}
	return b, nil
}

// decodeStrings reads a dictionary of distinct strings, in one allocation,
// and the codes into it, which must use every string, each first in its
// order. A string is hashed once, not once per cell.
func (c *column) decodeStrings(b []byte, h []uint64, m int, d *pageDecoder) ([]byte, error) {
	nd, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	if nd == 0 || nd > uint64(m) || nd > uint64(len(b)) {
		return nil, malformed("a dictionary of %d strings for %d cells", nd, m)
	}
	d.text, d.ends = d.text[:0], d.ends[:0]
	for range nd {
		var l uint64
		if l, b, err = DecodeUvarint(b); err != nil {
			return nil, err
		}
		if l > uint64(len(b)) {
			return nil, malformed("string of %d bytes, %d remain", l, len(b))
		}
		d.text, b = append(d.text, b[:l]...), b[l:]
		d.ends = append(d.ends, len(d.text))
	}
	if d.seen == nil {
		d.seen = make(map[string]struct{}, nd)
	}
	clear(d.seen)
	text, dict := string(d.text), &Dict{vals: make([]string, nd)}
	d.dict = d.dict[:0]
	start := 0
	for k, end := range d.ends {
		s := text[start:end]
		if _, dup := d.seen[s]; dup {
			return nil, malformed("string %q twice in a dictionary", s)
		}
		d.seen[s] = struct{}{}
		dict.vals[k], d.dict, start = s, append(d.dict, String_(s).hash64()), end
	}
	w := uint(bits.Len64(nd - 1))
	field, b, err := packed(b, m, w)
	if err != nil {
		return nil, err
	}
	c.codes, c.dict = make([]int32, len(h)), dict
	br, used := newBitReader(field, w), uint64(0)
	for i := range c.codes {
		if c.isNull(i) {
			continue
		}
		code := br.next()
		if code > used || code >= nd {
			return nil, malformed("code %d where %d of %d strings were used before", code, used, nd)
		}
		if code == used {
			used++
		}
		c.codes[i] = int32(code)
		h[i] += d.dict[code]
	}
	if used != nd {
		return nil, malformed("%d of %d dictionary strings unused", nd-used, nd)
	}
	return b, nil
}

// packed splits off the front of b the bytes of m fields of w bits, whose
// padding must be zero.
func packed(b []byte, m int, w uint) (field, rest []byte, err error) {
	nbits := uint(m) * w
	nb := int((nbits + 7) / 8)
	if len(b) < nb {
		return nil, nil, malformed("%d fields of %d bits in %d bytes", m, w, len(b))
	}
	if r := nbits & 7; r != 0 && b[nb-1]>>r != 0 {
		return nil, nil, malformed("packed fields padded with ones")
	}
	return b[:nb], b[nb:], nil
}

// bitReader reads what a bitPacker wrote: fields of w bits off b, which
// holds all of them.
type bitReader struct {
	b    []byte
	pos  uint // the bit the next field starts at
	w    uint
	mask uint64
}

func newBitReader(b []byte, w uint) bitReader {
	return bitReader{b: b, w: w, mask: uint64(1)<<w - 1}
}

func (r *bitReader) next() uint64 {
	i, off := r.pos>>3, r.pos&7
	r.pos += r.w
	if i+8 <= uint(len(r.b)) {
		v := binary.LittleEndian.Uint64(r.b[i:]) >> off
		if off+r.w > 64 { // the field ends in the ninth byte
			v |= uint64(r.b[i+8]) << (64 - off)
		}
		return v & r.mask
	}
	// Fewer than 8 bytes remain, so the field ends within the 56 bits of
	// those that do.
	var v uint64
	for k, x := range r.b[i:] {
		v |= uint64(x) << (8 * k)
	}
	return v >> off & r.mask
}
