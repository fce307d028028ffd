package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"iter"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	r := New("name", "age", "score", "active", "note")
	r.InsertValues(String_("Mary"), Int(23), Float(1.5), Bool(true), Null())
	r.InsertValues(String_("John, Jr."), Int(25), Float(-0.25), Bool(false), String_("has \"quotes\""))

	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\ncsv:\n%s", err, b.String())
	}
	if !got.Equal(r) {
		t.Errorf("round trip changed data:\ncsv:\n%s\ngot  %v\nwant %v", b.String(), got, r)
	}
	// Typed header emitted for uniform columns.
	header := strings.SplitN(b.String(), "\n", 2)[0]
	for _, want := range []string{"name:string", "age:int", "score:float", "active:bool"} {
		if !strings.Contains(header, want) {
			t.Errorf("header %q missing %q", header, want)
		}
	}
}

func TestCSVUntypedInference(t *testing.T) {
	src := "a, b, c, d\n1, 2.5, true, hello\n"
	r, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	tu := r.SortedTuples()[0]
	if r.Get(tu, "a").Kind() != KindInt ||
		r.Get(tu, "b").Kind() != KindFloat ||
		r.Get(tu, "c").Kind() != KindBool ||
		r.Get(tu, "d").Kind() != KindString {
		t.Errorf("inference wrong: %v", tu)
	}
}

func TestCSVTypedParsing(t *testing.T) {
	src := "id:int,label:string\n7,seven\n8,eight\n"
	r, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || !r.Contains(Tuple{Int(7), String_("seven")}) {
		t.Errorf("parsed %v", r)
	}
	// A numeric-looking cell stays a string under a string header.
	src2 := "code:string\n007\n"
	r2, err := ReadCSV(strings.NewReader(src2))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Contains(Tuple{String_("007")}) {
		t.Errorf("typed string column coerced: %v", r2)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",                        // no header
		"a:decimal\n1\n",          // unknown type
		"a:int\nnotanint\n",       // bad int
		"a:float\nx\n",            // bad float
		"a:bool\nmaybe\n",         // bad bool
		"a:int,b:int\n1\n",        // cell count mismatch
		"a:int\n\"unterminated\n", // csv syntax error
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("accepted invalid csv %q", src)
		}
	}
}

func TestCSVEmptyRelationAndNulls(t *testing.T) {
	r := New("a", "b")
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || !got.AttrSet().Equal(r.AttrSet()) {
		t.Errorf("empty relation round trip: %v", got)
	}
	// NULL cells.
	withNull, err := ReadCSV(strings.NewReader("a:int,b:string\n1,\n"))
	if err != nil {
		t.Fatal(err)
	}
	tu := withNull.SortedTuples()[0]
	if !withNull.Get(tu, "b").IsNull() {
		t.Error("empty cell must be NULL")
	}
}

func TestCSVMixedColumnHeader(t *testing.T) {
	r := New("mixed")
	r.InsertValues(Int(1))
	r.InsertValues(String_("x"))
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mixed:any") {
		t.Errorf("mixed column not declared any: %s", b.String())
	}
}

// refReadCSV is ReadCSV as it was before ScanCSV existed — its own record
// loop, a fresh record per row, a cloning Insert — kept as the reference
// the streaming reader is compared against.
func refReadCSV(rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: csv header: %w", err)
	}
	attrs := make([]string, len(header))
	kinds := make([]Kind, len(header))
	for i, h := range header {
		name, typeName, hasType := strings.Cut(strings.TrimSpace(h), ":")
		attrs[i] = name
		kinds[i] = KindNull
		if hasType {
			k, ok := KindFromName(strings.TrimSpace(typeName))
			if !ok {
				return nil, fmt.Errorf("relation: csv header: unknown type %q", typeName)
			}
			kinds[i] = k
		}
	}
	out := New(attrs...)
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: csv line %d: %w", line, err)
		}
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("relation: csv line %d: %d cells, want %d", line, len(row), len(attrs))
		}
		t := make(Tuple, len(row))
		for i, cell := range row {
			v, err := parseCSVCell(cell, kinds[i])
			if err != nil {
				return nil, fmt.Errorf("relation: csv line %d, column %s: %w", line, attrs[i], err)
			}
			t[i] = v
		}
		out.Insert(t)
	}
	return out, nil
}

// sameStorage reports whether two relations hold identical tuples under
// identical attribute lists in the same storage order.
func sameStorage(a, b *Relation) bool {
	if strings.Join(a.Attrs(), ",") != strings.Join(b.Attrs(), ",") || a.Len() != b.Len() {
		return false
	}
	next, stop := iter.Pull(b.All())
	defer stop()
	for ta := range a.All() {
		tb, _ := next()
		for i := range ta {
			if ta[i].Kind() != tb[i].Kind() || !ta[i].Equal(tb[i]) {
				return false
			}
		}
	}
	return true
}

// csvCorpus generates CSV documents around every shape the reader
// distinguishes: typed, untyped and mixed headers, cells that need
// quoting, leading spaces, empty cells, non-finite floats, duplicate rows —
// and, with fault set, one defect: a short or long record, a cell its
// column's type rejects, an unknown header type, a bare quote.
func csvCorpus(rng *rand.Rand, fault bool) string {
	kinds := []string{"", ":int", ":float", ":bool", ":string", ":any", " : int "}
	cell := func(kind string) string {
		switch rng.Intn(8) {
		case 0:
			return "" // NULL
		case 1:
			if strings.Contains(kind, "float") || kind == "" || kind == ":any" {
				return []string{"NaN", "Inf", "-Inf", "+Inf", "1e21", "-0"}[rng.Intn(6)]
			}
		}
		switch strings.TrimSpace(strings.Trim(strings.TrimSpace(kind), ":")) {
		case "int":
			return strconv.Itoa(rng.Intn(20) - 10)
		case "float":
			return strconv.FormatFloat(float64(rng.Intn(40))/8, 'g', -1, 64)
		case "bool":
			return []string{"true", "false", "T", "0"}[rng.Intn(4)]
		}
		return []string{"7", "2.5", "true", "plain", "with, comma", "two\nlines", "  led by spaces", `say "hi"`, "é✓"}[rng.Intn(9)]
	}
	n := 1 + rng.Intn(4)
	cols := make([]string, n)
	header := make([]string, n)
	for i := range cols {
		cols[i] = kinds[rng.Intn(len(kinds))]
		header[i] = fmt.Sprintf("a%d%s", i, cols[i])
	}
	rows := [][]string{header}
	for r, nr := 0, rng.Intn(12); r < nr; r++ {
		row := make([]string, n)
		for i := range row {
			row[i] = cell(cols[i])
		}
		rows = append(rows, row)
		if rng.Intn(4) == 0 {
			rows = append(rows, row) // a duplicate: set semantics drop it
		}
	}
	var sb strings.Builder
	cw := csv.NewWriter(&sb)
	if fault {
		at := rng.Intn(len(rows))
		switch rng.Intn(4) {
		case 0:
			rows[at] = rows[at][:len(rows[at])-1]
		case 1:
			rows[at] = append(append([]string(nil), rows[at]...), "extra")
		case 2:
			if at == 0 {
				rows[0][0] = "a0:decimal"
			} else {
				rows[0][0], rows[at][0] = "a0:int", "12x"
			}
		case 3:
			_ = cw.WriteAll(rows)
			return sb.String() + "tail,\"open\n"
		}
	}
	_ = cw.WriteAll(rows) // a strings.Builder does not fail
	return sb.String()
}

// TestScanCSVMatchesReference: the streaming reader and the one it
// replaced agree on every generated document — equal relations in the same
// storage order, or the same error text.
func TestScanCSVMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	faults := 0
	for i := 0; i < 2000; i++ {
		doc := csvCorpus(rng, i%3 == 0)
		want, werr := refReadCSV(strings.NewReader(doc))
		got, gerr := ReadCSV(strings.NewReader(doc))
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("document %d:\n%s\nstreaming: %v\nreference: %v", i, doc, gerr, werr)
		}
		if werr != nil {
			faults++
			continue
		}
		if !got.Equal(want) || !sameStorage(got, want) {
			t.Fatalf("document %d:\n%s\nstreaming %v\nreference %v", i, doc, got, want)
		}
	}
	if faults < 200 {
		t.Fatalf("only %d of 2000 documents failed to parse: the corpus lost its faults", faults)
	}
}

// TestCSVHeaderNames: a header the reference turned into a panic (New
// refuses empty and repeated attribute names) is an error of the input.
func TestCSVHeaderNames(t *testing.T) {
	for _, doc := range []string{"a,a\n1,2\n", "a,,b\n1,2,3\n", "a, :int\n1,2\n"} {
		if _, err := ReadCSV(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "csv header") {
			t.Errorf("%q: %v", doc, err)
		}
	}
}

// TestScanCSVPositions: header's answer places every cell; the tuple
// handed to row is refilled for the next record, so row copies what it
// keeps.
func TestScanCSVPositions(t *testing.T) {
	var kept []Tuple
	err := ScanCSV(strings.NewReader("b:int,a:string\n1,x\n2,y\n"),
		func(attrs []string) ([]int, error) {
			if strings.Join(attrs, ",") != "b,a" {
				t.Errorf("header %v", attrs)
			}
			return []int{1, 0}, nil
		},
		func(tu Tuple) error { kept = append(kept, tu.Clone()); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 || !kept[0][0].Equal(String_("x")) || !kept[0][1].Equal(Int(1)) || !kept[1][0].Equal(String_("y")) {
		t.Errorf("rows %v", kept)
	}
	stop := errors.New("stop")
	if err := ScanCSV(strings.NewReader("a\n1\n2\n"), func([]string) ([]int, error) { return nil, nil },
		func(Tuple) error { return stop }); err != stop {
		t.Errorf("row error came back as %v", err)
	}
}
