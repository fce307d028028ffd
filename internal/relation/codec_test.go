package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// codecValues is the pool the generated relations draw from: every kind,
// and within each the payloads an encoding is most likely to lose.
var codecValues = []Value{
	Null(), Bool(false), Bool(true),
	Int(0), Int(1), Int(-1), Int(2), Int(63), Int(64), Int(-64), Int(-65), Int(1 << 53), Int(1<<53 + 1),
	Int(math.MinInt64), Int(math.MaxInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(2), Float(-2.5), Float(1 << 53),
	Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
	Float(math.Float64frombits(0x7ff8_0000_0000_beef)), // a NaN with a payload
	Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64),
	String_(""), String_("a"), String_("a\x00b"), String_("\xff\xfe not utf-8"), String_("ünï"),
	String_(string(make([]byte, 200))),
}

// genRelation draws a relation of 0–4 attributes and up to 40 rows.
func genRelation(rng *rand.Rand) *Relation {
	attrs := make([]string, rng.Intn(5))
	for i := range attrs {
		attrs[i] = fmt.Sprintf("%c%d", 'a'+rune(rng.Intn(26)), i)
	}
	r := New(attrs...)
	for range rng.Intn(41) {
		t := make(Tuple, len(attrs))
		for i := range t {
			t[i] = codecValues[rng.Intn(len(codecValues))]
		}
		r.Insert(t)
	}
	return r
}

// sameBits is Equal without the set's identifications: −0 is not 0, a NaN
// is its payload, Int(2) is not Float(2).
func sameBits(a, b Value) bool {
	return a.kind == b.kind && a.b == b.b && a.i == b.i && a.s == b.s &&
		math.Float64bits(a.f) == math.Float64bits(b.f)
}

// checkRoundTrip holds r's encoding to the identities the checkpoint, the
// journal and the wire lean on: it decodes to r's rows bit for bit in
// storage order, re-encodes to itself, and builds what DecodePages builds
// from r's sections.
func checkRoundTrip(t *testing.T, r *Relation) []byte {
	t.Helper()
	enc := r.AppendBinary(nil)
	got, rest, err := DecodeBinary(append(enc[:len(enc):len(enc)], "tail"...))
	if err != nil {
		t.Fatalf("decode of %v: %v", r, err)
	}
	if string(rest) != "tail" {
		t.Fatalf("decode left %q, want the 4 bytes after the relation", rest)
	}
	if fmt.Sprint(got.Attrs()) != fmt.Sprint(r.Attrs()) || got.Len() != r.Len() || !got.Equal(r) {
		t.Fatalf("round trip changed the relation:\n got %v\nwant %v", got, r)
	}
	for i := range r.Len() {
		want, row := r.rows.at(i), got.rows.at(i)
		for j := range row {
			if !sameBits(row[j], want[j]) {
				t.Fatalf("row %d col %d: got %#v, want %#v", i, j, row[j], want[j])
			}
		}
	}
	if again := got.AppendBinary(nil); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs:\n%x\n%x", again, enc)
	}
	paged, err := DecodePages(r.Attrs(), uint64(r.Len()), sectionsOf(r))
	if err != nil || !paged.Equal(got) {
		t.Fatalf("DecodePages over the sections of %v: %v, error %v", r, paged, err)
	}
	for pi, sec := range sectionsOf(got) {
		if want, _ := paged.PageSection(pi); !bytes.Equal(sec.Bytes, want.Bytes) {
			t.Fatalf("page %d: DecodeBinary and DecodePages build other sections:\n%x\n%x", pi, sec.Bytes, want.Bytes)
		}
	}
	return enc
}

// TestCodecRoundTrip: decode ∘ encode is the identity down to the bit, on
// relations of every kind, of pages of every layout and of several pages.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for range 2000 {
		checkRoundTrip(t, genRelation(rng))
	}
	big := New("k", "s", "v")
	for i := range 2*pageLen + 10 {
		big.InsertValues(Int(int64(i*7-5000)), String_(fmt.Sprint("x", i%300)), codecValues[i%len(codecValues)])
	}
	for i := 0; i < big.Len(); i += 13 {
		big.Delete(big.rows.at(i))
	}
	for _, r := range append(sectionPages(), big) {
		checkRoundTrip(t, r)
	}
	// The two relations of no attributes: the empty one and the one
	// holding the empty tuple.
	none, one := New(), New()
	one.Insert(Tuple{})
	if enc := checkRoundTrip(t, none); !bytes.Equal(enc, []byte{0, 0}) {
		t.Errorf("New() encodes as %x", enc)
	}
	if enc := checkRoundTrip(t, one); !bytes.Equal(enc, []byte{0, 1}) {
		t.Errorf("{()} encodes as %x", enc)
	}
}

// TestCodecLayout spells the encoding out on one small relation: the
// header, then its one page's section, rows in the order they were
// inserted.
func TestCodecLayout(t *testing.T) {
	r := New("k", "v")
	r.InsertValues(Int(-3), String_("hi"))
	r.InsertValues(Int(4), Null())
	r.InsertValues(Int(1), String_("hi"))
	want := []byte{
		2, 1, 'k', 1, 'v', // arity, then each name behind its length
		3,                // rows
		2, 5, 3, 0x38, 1, // int: minimum −3 (zig-zag 5), width 3; offsets 0, 7, 4
		4 | 8, 0b010, 1, 2, 'h', 'i', // string, row 1 NULL; one string, codes of 0 bits
	}
	if got := r.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatalf("encoding:\n got %v\nwant %v", got, want)
	}
}

// header is the encoding of a relation's header: attrs, then a row count
// that is not checked against anything.
func header(n uint64, attrs ...string) []byte {
	b := binary.AppendUvarint(nil, uint64(len(attrs)))
	for _, a := range attrs {
		b = AppendString(b, a)
	}
	return binary.AppendUvarint(b, n)
}

// hostileEncodings are inputs the decoder must refuse, whether they arrive
// as a report body, a stream frame or a journal record.
var hostileEncodings = map[string][]byte{
	"duplicate attribute":     append(header(1, "loc", "loc"), 4, 1, 1, 'x', 4, 1, 1, 'y'),
	"empty attribute":         append(header(1, "loc", ""), 4, 1, 1, 'x', 4, 1, 1, 'y'),
	"column missing":          append(header(1, "loc", "n"), 4, 1, 1, 'x'),
	"unknown kind":            append(header(1, "a"), 0, 5),
	"bool above 1":            append(header(1, "a"), 0, 1, 2),
	"long varint":             append(header(1, "a"), 0, 2, 0x80, 0x00),
	"overflowing varint":      append(append(header(1, "a"), 0, 2), bytes.Repeat([]byte{0xff}, 11)...),
	"float cut short":         append(header(1, "a"), 3, 0, 0, 0),
	"string past the end":     append(header(1, "a"), 0, 4, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'),
	"name past the end":       {1, 0xff, 0xff, 0xff, 0xff, 0x0f, 'a'},
	"arity past the end":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	"rows past the end":       append(header(1<<62, "a"), 2, 0, 0),
	"2^32 rows":               append(header(1<<32, "a"), 2, 0, 0),
	"rows wrap the pages":     append(header(math.MaxUint64, "a"), 2, 0, 0), // ⌈n/1024⌉ computed as (n+1023)>>10 is 0
	"pages past the end":      append(header(pageLen+1, "a"), 5),
	"section cut short":       append(header(2, "a"), 2, 0, 1),
	"two empty tuples":        {0, 2},
	"empty tuples galore":     {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	"duplicate row":           append(header(2, "a"), 2, 2, 0),
	"2 and 2.0":               append(header(2, "a"), 0, 2, 4, 3, 0x40, 0, 0, 0, 0, 0, 0, 0),
	"0 and -0":                append(header(2, "a"), 3, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0),
	"width not the narrowest": append(header(2, "a"), 2, 0, 2, 0b0100),
	"empty":                   {},
}

func TestDecodeBinaryRefusesHostileInput(t *testing.T) {
	for name, b := range hostileEncodings {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r, _, err := DecodeBinary(b)
		runtime.ReadMemStats(&ms)
		if !errors.Is(err, ErrEncoding) || r != nil {
			t.Errorf("%s: got relation %v, error %v; want an error wrapping ErrEncoding", name, r, err)
		}
		// A claimed count is checked against the bytes present before
		// anything is sized by it.
		if got := ms.TotalAlloc - before; got > 16<<10 {
			t.Errorf("%s: %d input bytes, %d allocated", name, len(b), got)
		}
	}
}

// twoPages is a relation whose second page holds a few rows.
func twoPages() *Relation {
	r := New("k", "s")
	for i := range pageLen + 3 {
		r.InsertValues(Int(int64(i)), String_(fmt.Sprint("s", i%5)))
	}
	return r
}

// TestDecodeBinaryPrefixes: the counts come first, so no proper prefix of
// an encoding is itself one.
func TestDecodeBinaryPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	encs := [][]byte{twoPages().AppendBinary(nil)}
	for range 50 {
		encs = append(encs, genRelation(rng).AppendBinary(nil))
	}
	for _, enc := range encs {
		for n := range len(enc) {
			if r, _, err := DecodeBinary(enc[:n:n]); !errors.Is(err, ErrEncoding) {
				t.Fatalf("prefix %d of %x decoded to %v, error %v", n, enc, r, err)
			}
		}
	}
}

// FuzzDecodeBinary: whatever the bytes, the decoder returns — and what it
// accepts is exactly what the encoder writes for the relation it built.
func FuzzDecodeBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		f.Add(genRelation(rng).AppendBinary(nil))
	}
	f.Add(twoPages().AppendBinary(nil))
	for _, b := range hostileEncodings {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, rest, err := DecodeBinary(b)
		if err != nil {
			if !errors.Is(err, ErrEncoding) || r != nil {
				t.Fatalf("error %v with relation %v", err, r)
			}
			return
		}
		used := b[:len(b)-len(rest)]
		if enc := r.AppendBinary(nil); !bytes.Equal(enc, used) {
			t.Fatalf("accepted %x, which encodes as %x", used, enc)
		}
	})
}
