package relation

import (
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
