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
	if fmt.Sprint(got.Attrs()) != fmt.Sprint(r.Attrs()) || !got.Equal(r) {
		t.Fatalf("round trip changed the relation:\n got %v\nwant %v", got, r)
	}
	want := r.SortedRows()
	for i, row := range got.SortedRows() {
		for j := range row {
			if !sameBits(row[j], want[i][j]) {
				t.Fatalf("row %d col %d: got %#v, want %#v", i, j, row[j], want[i][j])
			}
		}
	}
	if again := got.AppendBinary(nil); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs:\n%x\n%x", again, enc)
	}
	return enc
}

// TestCodecRoundTrip is the property the checkpoint, the journal and the
// wire all lean on: decode ∘ encode is the identity down to the bit, and
// the bytes depend on the relation, not on how it was built.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for range 2000 {
		r := genRelation(rng)
		enc := checkRoundTrip(t, r)
		// The same set inserted in another order, some rows twice.
		rows := r.SortedTuples()
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		o := New(r.Attrs()...)
		for _, row := range rows {
			o.Insert(row)
		}
		for _, row := range rows[:len(rows)/2] {
			o.Insert(row)
		}
		if other := o.AppendBinary(nil); !bytes.Equal(other, enc) {
			t.Fatalf("insertion order changed the bytes of %v:\n%x\n%x", r, other, enc)
		}
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

// TestCodecLayout spells the encoding out on one small relation.
func TestCodecLayout(t *testing.T) {
	r := New("k", "v")
	r.InsertValues(Int(-3), String_("hi"))
	r.InsertValues(Int(-3), Null())
	r.InsertValues(Bool(true), Float(-2.5))
	want := []byte{
		2, 1, 'k', 1, 'v', // arity, then each name behind its length
		3,                                     // rows, sorted: kinds order null < bool < numbers < string
		1, 1, 3, 0xc0, 0x04, 0, 0, 0, 0, 0, 0, // bool true | float: 8 IEEE bytes, big endian
		2, 5, 0, // int −3 (zig-zag 5) | null
		2, 5, 4, 2, 'h', 'i', // int −3 | string behind its length
	}
	if got := r.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatalf("encoding:\n got %v\nwant %v", got, want)
	}
}

// rawRelation encodes what no Relation can hold: the attribute list and
// the rows are written as given.
func rawRelation(attrs []string, rows ...[]Value) []byte {
	b := binary.AppendUvarint(nil, uint64(len(attrs)))
	for _, a := range attrs {
		b = AppendString(b, a)
	}
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		for i := range row {
			b = appendValue(b, &row[i])
		}
	}
	return b
}

// hostileEncodings are inputs the decoder must refuse. The first three
// panicked the parent inside New / Insert when they arrived as a report
// body, a stream frame or a CRC-valid snapshot.
var hostileEncodings = map[string][]byte{
	"duplicate attribute": rawRelation([]string{"loc", "loc"}, []Value{String_("x"), String_("y")}),
	"empty attribute":     rawRelation([]string{"loc", ""}, []Value{String_("x"), String_("y")}),
	"short row":           rawRelation([]string{"loc", "n"}, []Value{String_("x"), Int(1)}, []Value{String_("y")}),
	"unknown kind":        {1, 1, 'a', 1, 5},
	"bool above 1":        {1, 1, 'a', 1, 1, 2},
	"long varint":         {1, 1, 'a', 1, 2, 0x80, 0x00},
	"overflowing varint":  append([]byte{1, 1, 'a', 1, 2}, bytes.Repeat([]byte{0xff}, 11)...),
	"float cut short":     {1, 1, 'a', 1, 3, 0, 0, 0},
	"string past the end": {1, 1, 'a', 1, 4, 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'},
	"name past the end":   {1, 0xff, 0xff, 0xff, 0xff, 0x0f, 'a'},
	"arity past the end":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	"rows past the end":   {1, 1, 'a', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0},
	"two empty tuples":    {0, 2},
	"empty tuples galore": {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	"rows out of order":   rawRelation([]string{"a"}, []Value{Int(2)}, []Value{Int(1)}),
	"duplicate row":       rawRelation([]string{"a"}, []Value{Int(1)}, []Value{Int(1)}),
	"2 and 2.0":           rawRelation([]string{"a"}, []Value{Int(2)}, []Value{Float(2)}),
	"0 and -0":            rawRelation([]string{"a"}, []Value{Float(0)}, []Value{Float(math.Copysign(0, -1))}),
	"empty":               {},
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

// TestDecodeBinaryPrefixes: the counts come first, so no proper prefix of
// an encoding is itself one.
func TestDecodeBinaryPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for range 50 {
		enc := genRelation(rng).AppendBinary(nil)
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
