package relation

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sectionsOf returns the sections of every row page of r.
func sectionsOf(r *Relation) []Section {
	secs := make([]Section, r.NumPages())
	for pi := range secs {
		s, _ := r.PageSection(pi)
		secs[pi] = *s
	}
	return secs
}

// sectionPages are one-page relations holding what a section must keep bit
// for bit: NULLs in every typed layout beside a column of nothing but
// NULLs, a ColAny column, NaN and −0, the extreme ints, a dictionary that
// still holds strings deletes left unused, and the empty tuple.
func sectionPages() []*Relation {
	nulls := New("k", "f", "s", "b", "n")
	for i := range 100 {
		row := Tuple{Int(int64(i)), Float(float64(i) / 3), String_(fmt.Sprint("s", i%7)), Bool(i%2 == 0), Null()}
		if i%5 == 0 {
			row[1], row[2], row[3] = Null(), Null(), Null()
		}
		nulls.Insert(row)
	}
	mixed := New("k", "v")
	for i, v := range codecValues {
		mixed.InsertValues(Int(int64(i)), v)
	}
	extremes := New("f", "i", "one")
	for i, f := range []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		extremes.InsertValues(Float(f), Int([]int64{math.MinInt64, math.MaxInt64, 0, -1, 1, 1 << 53}[i]), Int(math.MinInt64))
	}
	dead := New("k", "s")
	for i := range 50 {
		dead.InsertValues(Int(int64(i)), String_(fmt.Sprint("w", i)))
	}
	for i := 0; i < 50; i += 3 {
		dead.Delete(Tuple{Int(int64(i)), String_(fmt.Sprint("w", i))})
	}
	empty := New()
	empty.Insert(Tuple{})
	return []*Relation{nulls, mixed, extremes, dead, empty}
}

// TestSectionRoundTrip: DecodePages ∘ PageSection is the identity down to
// the bit and the layout, over pages that inserts, deletes and promotions
// wrote. The decoded rows carry the hashes Insert gave them, and a decoded
// page encodes to the section it was decoded from.
func TestSectionRoundTrip(t *testing.T) {
	big := New("k", "s", "v")
	for i := range 3*pageLen + 10 {
		big.InsertValues(Int(int64(i*7-5000)), String_(fmt.Sprint("x", i%300)), codecValues[i%len(codecValues)])
	}
	for i := 0; i < big.Len(); i += 17 {
		big.Delete(big.rows.at(i))
	}
	for _, r := range append(sectionPages(), big) {
		secs := sectionsOf(r)
		back, err := DecodePages(r.Attrs(), uint64(r.Len()), secs)
		if err != nil {
			t.Fatalf("%v: %v", r.Attrs(), err)
		}
		if !back.Equal(r) {
			t.Fatalf("%v: decodes to another relation", r.Attrs())
		}
		for i := range r.Len() {
			want, got := r.rows.at(i), back.rows.at(i)
			for c := range want {
				if !sameBits(got[c], want[c]) {
					t.Fatalf("%v: row %d column %d decodes to %#v, the page held %#v", r.Attrs(), i, c, got[c], want[c])
				}
			}
			if back.set.hashes.at(i) != r.set.hashes.at(i) {
				t.Fatalf("%v: row %d decodes with another hash", r.Attrs(), i)
			}
		}
		for pi, pg := range back.rows.pages {
			n := back.rows.rowsOn(pi)
			for c := range pg {
				orig := &r.rows.pages[pi][c]
				if pg[c].kind != orig.kind && !(pg[c].kind == ColAny && orig.nullCount(n) == n) {
					t.Errorf("%v: page %d column %d decodes as %v, was %v", r.Attrs(), pi, c, pg[c].kind, orig.kind)
				}
			}
			if enc := pg.appendSection(nil, n); !bytes.Equal(enc, secs[pi].Bytes) {
				t.Fatalf("%v: page %d re-encodes as %x, was %x", r.Attrs(), pi, enc, secs[pi].Bytes)
			}
		}
	}
}

// TestSectionLayout spells a section out byte by byte.
func TestSectionLayout(t *testing.T) {
	r := New("i", "s", "b", "f", "a", "n")
	r.InsertValues(Int(7), String_("x"), Bool(true), Float(1.5), Int(1), Null())
	r.InsertValues(Int(-1), Null(), Bool(false), Null(), String_("z"), Null())
	want := []byte{
		2, 1, 4, 0x08, // int: minimum −1 (zig-zag 1), width 4; offsets 8 and 0
		4 | 8, 0b10, 1, 1, 'x', // string, row 1 NULL; one string, codes of 0 bits
		1, 0b01, // bool: true, false
		3 | 8, 0b10, 0x3f, 0xf8, 0, 0, 0, 0, 0, 0, // float, row 1 NULL; 1.5
		0, 2, 2, 4, 1, 'z', // ColAny: int 1, string "z"
		5, // every row NULL
	}
	if sec, _ := r.PageSection(0); !bytes.Equal(sec.Bytes, want) {
		t.Fatalf("section:\n got %v\nwant %v", sec.Bytes, want)
	}
}

// nonCanonicalSections are one-page sections DecodePages must refuse: the
// page has n rows and arity columns.
var nonCanonicalSections = map[string]struct {
	arity, n int
	b        []byte
}{
	"column missing":              {1, 1, nil},
	"second column missing":       {2, 1, []byte{2, 0, 0}},
	"unknown tag":                 {1, 1, []byte{6}},
	"ColAny with a bitmap":        {1, 1, []byte{8, 0}},
	"tag past string":             {1, 1, []byte{13}},
	"bytes after the columns":     {1, 1, []byte{2, 0, 0, 0}},
	"width not the narrowest":     {1, 2, []byte{2, 0, 2, 0b0100}},
	"minimum not the minimum":     {1, 2, []byte{2, 2, 2, 0b1001}},
	"width past 64":               {1, 1, []byte{2, 0, 65}},
	"int past MaxInt64":           {1, 2, []byte{2, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 0b10}},
	"int padding bit set":         {1, 2, []byte{2, 0, 1, 0b110}},
	"ints cut short":              {1, 9, []byte{2, 0, 1, 0xff}},
	"bool padding bit set":        {1, 1, []byte{1, 0b10}},
	"float cut short":             {1, 1, []byte{3, 0, 0, 0, 0}},
	"bitmap without a NULL":       {1, 2, []byte{2 | 8, 0, 0, 1, 0b10}},
	"bitmap of NULLs only":        {1, 2, []byte{2 | 8, 0b11}},
	"bitmap padded with ones":     {1, 2, []byte{2 | 8, 0b101, 0, 0}},
	"bitmap cut short":            {1, 9, []byte{2 | 8, 1}},
	"ColAny of NULLs only":        {1, 2, []byte{0, 0, 0}},
	"ColAny value cut short":      {1, 2, []byte{0, 2, 2, 4}},
	"empty dictionary":            {1, 1, []byte{4, 0}},
	"dictionary past the cells":   {1, 1, []byte{4, 2, 1, 'a', 1, 'b'}},
	"dictionary string unused":    {1, 2, []byte{4, 2, 1, 'a', 1, 'b', 0b00}},
	"dictionary out of first use": {1, 2, []byte{4, 2, 1, 'a', 1, 'b', 0b01}},
	"dictionary string twice":     {1, 2, []byte{4, 2, 1, 'a', 1, 'a', 0b10}},
	"dictionary string cut short": {1, 1, []byte{4, 1, 5, 'a'}},
	"row twice":                   {1, 2, []byte{2, 0, 0}},
	"2 and 2.0 as one row":        {1, 2, []byte{0, 2, 4, 3, 0x40, 0, 0, 0, 0, 0, 0, 0}},
	"two empty tuples":            {0, 2, nil},
}

func TestDecodePagesRefusesNonCanonical(t *testing.T) {
	for name, tc := range nonCanonicalSections {
		r, err := DecodePages([]string{"a", "b"}[:tc.arity], uint64(tc.n), []Section{{Bytes: tc.b}})
		if !errors.Is(err, ErrEncoding) || r != nil {
			t.Errorf("%s: relation %v, error %v; want an error wrapping ErrEncoding", name, r, err)
		}
	}
	// The controls: the narrowest width from the true minimum, a dictionary
	// in first-use order.
	for _, b := range [][]byte{{2, 0, 1, 0b10}, {4, 2, 1, 'a', 1, 'b', 0b10}} {
		if _, err := DecodePages([]string{"a"}, 2, []Section{{Bytes: b}}); err != nil {
			t.Errorf("control %v refused: %v", b, err)
		}
	}
}

// TestDecodePagesAllocations: a restart decodes a page with a bounded
// number of allocations per column — a vector, a bitmap, a dictionary's
// strings in one — and none per row or per string cell.
func TestDecodePagesAllocations(t *testing.T) {
	r := New("k", "s", "f", "b")
	for i := range 4 * pageLen {
		row := Tuple{Int(int64(i)), String_(fmt.Sprint("str-", i%700)), Float(float64(i) / 8), Bool(i%3 == 0)}
		if i%11 == 0 {
			row[2] = Null()
		}
		r.Insert(row)
	}
	secs := sectionsOf(r)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodePages(r.Attrs(), uint64(r.Len()), secs); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 8 * r.NumPages() * r.Arity(); allocs > float64(limit) {
		t.Fatalf("DecodePages of %d pages × %d columns: %.0f allocations, want at most %d", r.NumPages(), r.Arity(), allocs, limit)
	}
	t.Logf("%.0f allocations for %d pages × %d columns, %d rows", allocs, r.NumPages(), r.Arity(), r.Len())
}

// FuzzDecodePages: whatever the bytes of a one-page section, DecodePages
// returns — an error wrapping ErrEncoding, or a page that encodes to those
// very bytes and whose rows carry the hashes Insert gives them. Besides
// the checkpoint's pages it is seeded with deltas of 1–3 rows, the pages
// journal, stream and report records carry.
func FuzzDecodePages(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	deltas := sectionPages()
	for len(deltas) < 20 {
		r := genRelation(rng)
		if r.Arity() == 0 || r.Len() == 0 {
			continue
		}
		d, k := New(r.Attrs()...), 1+rng.Intn(3)
		for row := range r.All() {
			if d.Len() == k {
				break
			}
			d.Insert(row)
		}
		deltas = append(deltas, d)
	}
	for _, r := range deltas {
		sec, _ := r.PageSection(0)
		f.Add(uint8(r.Arity()), uint16(r.Len()), sec.Bytes)
	}
	for _, tc := range nonCanonicalSections {
		f.Add(uint8(tc.arity), uint16(tc.n), tc.b)
	}
	f.Fuzz(func(t *testing.T, arity uint8, rows uint16, b []byte) {
		attrs := make([]string, arity%6)
		for i := range attrs {
			attrs[i] = fmt.Sprint("a", i)
		}
		n := 1 + int(rows-1)%pageLen
		r, err := DecodePages(attrs, uint64(n), []Section{{Bytes: b}})
		if err != nil {
			if !errors.Is(err, ErrEncoding) || r != nil {
				t.Fatalf("error %v with relation %v", err, r)
			}
			return
		}
		if enc := r.rows.pages[0].appendSection(nil, n); !bytes.Equal(enc, b) {
			t.Fatalf("accepted %x, which encodes as %x", b, enc)
		}
		for i := range n {
			if r.set.hashes.at(i) != r.rows.at(i).hash64() {
				t.Fatalf("row %d decodes with another hash", i)
			}
		}
	})
}
