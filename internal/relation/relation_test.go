package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func mkRel(t *testing.T, attrs []string, rows ...[]Value) *Relation {
	t.Helper()
	r := New(attrs...)
	for _, row := range rows {
		r.Insert(Tuple(row))
	}
	return r
}

func TestSchemaConstruction(t *testing.T) {
	s := NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk")
	if s.Name != "Emp" {
		t.Errorf("name = %q", s.Name)
	}
	if got := s.String(); got != "Emp(clerk string, age int) key(clerk)" {
		t.Errorf("String() = %q", got)
	}
	if s.AttrType("age") != KindInt || s.AttrType("clerk") != KindString {
		t.Error("attribute types lost")
	}
	if s.AttrType("nope") != KindNull {
		t.Error("unknown attr type should be KindNull")
	}
	if !s.HasKey() || !s.KeySet().Equal(NewAttrSet("clerk")) {
		t.Error("key lost")
	}
	if !s.AttrSet().Equal(NewAttrSet("clerk", "age")) {
		t.Error("attr set wrong")
	}
	c := s.Clone()
	c.Attrs[0].Name = "x"
	c.Key[0] = "x"
	if s.Attrs[0].Name != "clerk" || s.Key[0] != "clerk" {
		t.Error("Clone shares storage")
	}
}

func TestSchemaValidate(t *testing.T) {
	bad := []*Schema{
		{Name: "", Attrs: []Attribute{{Name: "a"}}},
		{Name: "R"},
		{Name: "R", Attrs: []Attribute{{Name: "a"}, {Name: "a"}}},
		{Name: "R", Attrs: []Attribute{{Name: ""}}},
		{Name: "R", Attrs: []Attribute{{Name: "a"}}, Key: []string{"b"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid schema %+v", i, s)
		}
	}
	if err := (&Schema{Name: "R", Attrs: []Attribute{{Name: "a"}}, Key: []string{"a"}}).Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestSchemaPanics(t *testing.T) {
	assertPanics(t, func() { NewSchema("R", "a:decimal") }, "unknown type")
	assertPanics(t, func() { NewSchema("R", "a").WithKey("b") }, "key not in schema")
}

func assertPanics(t *testing.T, fn func(), msg string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic: %s", msg)
		}
	}()
	fn()
}

func TestAttrSetOps(t *testing.T) {
	a := NewAttrSet("x", "y")
	b := NewAttrSet("y", "z")
	if !a.Union(b).Equal(NewAttrSet("x", "y", "z")) {
		t.Error("union")
	}
	if !a.Intersect(b).Equal(NewAttrSet("y")) {
		t.Error("intersect")
	}
	if !a.Minus(b).Equal(NewAttrSet("x")) {
		t.Error("minus")
	}
	if !NewAttrSet("x").SubsetOf(a) || a.SubsetOf(b) {
		t.Error("subset")
	}
	if a.String() != "{x, y}" {
		t.Errorf("String = %q", a.String())
	}
	if !a.Clone().Equal(a) {
		t.Error("clone")
	}
	if NewAttrSet().Len() != 0 || !NewAttrSet().IsEmpty() {
		t.Error("empty set")
	}
}

func TestInsertSetSemantics(t *testing.T) {
	r := New("a", "b")
	if !r.InsertValues(Int(1), String_("x")) {
		t.Error("first insert reported duplicate")
	}
	if r.InsertValues(Int(1), String_("x")) {
		t.Error("duplicate insert reported new")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	// Numeric coercion: Float(1) duplicates Int(1).
	if r.InsertValues(Float(1), String_("x")) {
		t.Error("Float(1),x should duplicate Int(1),x under set semantics")
	}
	if !r.Contains(Tuple{Int(1), String_("x")}) {
		t.Error("Contains lost the tuple")
	}
	if r.Contains(Tuple{Int(2), String_("x")}) {
		t.Error("Contains invented a tuple")
	}
	if r.Contains(Tuple{Int(1)}) {
		t.Error("arity-mismatched Contains must be false")
	}
}

func TestInsertArityPanic(t *testing.T) {
	r := New("a", "b")
	assertPanics(t, func() { r.InsertValues(Int(1)) }, "arity mismatch")
}

func TestDelete(t *testing.T) {
	r := mkRel(t, []string{"a"}, []Value{Int(1)}, []Value{Int(2)}, []Value{Int(3)})
	if !r.Delete(Tuple{Int(2)}) {
		t.Error("delete of present tuple failed")
	}
	if r.Delete(Tuple{Int(2)}) {
		t.Error("delete of absent tuple succeeded")
	}
	if r.Len() != 2 || !r.Contains(Tuple{Int(1)}) || !r.Contains(Tuple{Int(3)}) {
		t.Error("wrong survivors after delete")
	}
	// Delete first element exercises the swap-with-last path.
	if !r.Delete(Tuple{Int(1)}) || !r.Contains(Tuple{Int(3)}) || r.Len() != 1 {
		t.Error("swap-with-last delete broken")
	}
}

func TestEqualIgnoresColumnOrder(t *testing.T) {
	a := mkRel(t, []string{"x", "y"}, []Value{Int(1), String_("u")}, []Value{Int(2), String_("v")})
	b := mkRel(t, []string{"y", "x"}, []Value{String_("u"), Int(1)}, []Value{String_("v"), Int(2)})
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("Equal must ignore column order")
	}
	b.InsertValues(String_("w"), Int(3))
	if a.Equal(b) {
		t.Error("Equal ignored extra tuple")
	}
	c := mkRel(t, []string{"x", "z"}, []Value{Int(1), String_("u")})
	if a.Equal(c) {
		t.Error("Equal across different attribute sets")
	}
}

func TestSubsetOf(t *testing.T) {
	a := mkRel(t, []string{"x"}, []Value{Int(1)})
	b := mkRel(t, []string{"x"}, []Value{Int(1)}, []Value{Int(2)})
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("SubsetOf broken")
	}
	c := mkRel(t, []string{"y"}, []Value{Int(1)})
	if a.SubsetOf(c) {
		t.Error("SubsetOf across attribute sets")
	}
}

func TestInsertAllAligns(t *testing.T) {
	a := mkRel(t, []string{"x", "y"}, []Value{Int(1), Int(10)})
	b := mkRel(t, []string{"y", "x"}, []Value{Int(10), Int(1)}, []Value{Int(20), Int(2)})
	added := a.InsertAll(b)
	if added != 1 {
		t.Errorf("added = %d, want 1", added)
	}
	if !a.Contains(Tuple{Int(2), Int(20)}) {
		t.Error("aligned insert lost tuple")
	}
}

func TestFingerprint(t *testing.T) {
	a := mkRel(t, []string{"x", "y"}, []Value{Int(1), Int(2)}, []Value{Int(3), Int(4)})
	b := mkRel(t, []string{"y", "x"}, []Value{Int(4), Int(3)}, []Value{Int(2), Int(1)})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprints must ignore column and row order")
	}
	b.InsertValues(Int(9), Int(9))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprints must differ on content change")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := mkRel(t, []string{"x"}, []Value{Int(1)})
	c := a.Clone()
	c.InsertValues(Int(2))
	if a.Len() != 1 || c.Len() != 2 {
		t.Error("Clone shares tuple storage")
	}
}

func TestStringRendering(t *testing.T) {
	r := mkRel(t, []string{"item", "clerk"},
		[]Value{String_("TV set"), String_("Mary")},
		[]Value{String_("PC"), String_("John")})
	s := r.String()
	for _, want := range []string{"item", "clerk", "TV set", "Mary", "PC", "(2 tuples)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	one := mkRel(t, []string{"a"}, []Value{Int(1)})
	if !strings.Contains(one.String(), "(1 tuple)") {
		t.Error("singular tuple count")
	}
}

func TestSortedTuplesDeterministic(t *testing.T) {
	r := mkRel(t, []string{"a", "b"},
		[]Value{Int(2), String_("x")},
		[]Value{Int(1), String_("z")},
		[]Value{Int(1), String_("a")})
	got := r.SortedTuples()
	want := []Tuple{
		{Int(1), String_("a")},
		{Int(1), String_("z")},
		{Int(2), String_("x")},
	}
	for i := range want {
		if !got[i][0].Equal(want[i][0]) || !got[i][1].Equal(want[i][1]) {
			t.Fatalf("sorted order wrong at %d: got %v", i, got)
		}
	}
}

// tupleLessRef is the tuple order SortedTuples had before it sorted under one
// three-way comparator, kept as the reference: column by column under
// Value.Less, asked both ways.
func tupleLessRef(a, b Tuple) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i].Less(b[i]) {
			return true
		}
		if b[i].Less(a[i]) {
			return false
		}
	}
	return len(a) < len(b)
}

// TestSortedRowsMatchesReferenceOrder: on random relations mixing every
// kind in every column position, SortedTuples is a permutation of the rows in
// exactly the reference order, and the comparator agrees with the reference
// on every pair, ties included.
func TestSortedRowsMatchesReferenceOrder(t *testing.T) {
	pool := []Value{
		Null(), Bool(false), Bool(true),
		Int(0), Int(1), Float(1.0), Float(1.5), Int(2), Int(-3), Int(math.MaxInt64), Int(math.MinInt64),
		Float(math.NaN()), Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(5e-324), Float(-math.MaxFloat64),
		String_(""), String_("a"), String_("ab"), String_("é"), String_("日本"), String_("\xff"),
	}
	for _, a := range pool {
		for _, b := range pool {
			c := orderValues(&a, &b)
			if (c < 0) != a.Less(b) || (c > 0) != b.Less(a) {
				t.Fatalf("orderValues(%v:%v, %v:%v) = %d, Less says %v / %v", a.Kind(), a, b.Kind(), b, c, a.Less(b), b.Less(a))
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		arity := rng.Intn(4)
		attrs := []string{"a", "b", "c"}[:arity]
		r := New(attrs...)
		for n := rng.Intn(60); n > 0; n-- {
			row := make(Tuple, arity)
			for c := range row {
				row[c] = pool[rng.Intn(len(pool))]
			}
			r.Insert(row)
		}
		checkOrder(t, "round "+strconv.Itoa(round), r)
	}
}

// checkOrder holds SortedTuples to the reference order:
// All sorted under tupleLessRef, every row once. It also holds the codec to
// its identities on these relations: several pages of differing layouts,
// dictionaries keeping dead strings, rows moved across pages by deletes.
func checkOrder(t *testing.T, name string, r *Relation) {
	t.Helper()
	got := r.SortedTuples()
	want := slices.Collect(r.All())
	sort.Slice(want, func(i, j int) bool { return tupleLessRef(want[i], want[j]) })
	if len(got) != r.Len() || len(want) != r.Len() {
		t.Fatalf("%s: %d sorted rows of %d", name, len(got), r.Len())
	}
	seen := map[string]bool{}
	for i := range got {
		if !sameTuple(got[i], want[i]) {
			t.Fatalf("%s: row %d is %v, reference order has %v", name, i, got[i], want[i])
		}
		if !r.Contains(got[i]) || seen[got[i].key()] {
			t.Fatalf("%s: row %d (%v) is not a row of the relation, or twice", name, i, got[i])
		}
		seen[got[i].key()] = true
	}
	checkRoundTrip(t, r)
}

// TestOrderAcrossPages: on relations of several pages whose layouts differ
// page by page — typed, ColAny, NULL-bearing, NULL-only, string pages with
// dictionaries of their own that keep dead strings after deletes — the
// order is the reference order, before and after the deletes. The columns
// cover both ways a column is compared: a key per row (one typed layout on
// every page, NULLs or not) and cell by cell (mixed layouts, or a NULL
// beside MinInt64).
func TestOrderAcrossPages(t *testing.T) {
	mixed := []Value{Int(2), Float(2.5), String_("x"), Bool(true), Null(), Float(math.NaN()), Int(-1)}
	floats := []Value{Float(math.NaN()), Float(math.Inf(-1)), Float(math.Copysign(0, -1)), Float(0.25), Float(math.Inf(1)), Float(-3), Null()}
	for _, c := range []struct {
		name string
		cell func(page, i, col int) Value
	}{
		{"layouts per page", func(page, i, col int) Value {
			switch {
			case col == 0 && page == 1:
				return mixed[i%len(mixed)]
			case col == 0:
				return Int(int64(i % 5))
			case col == 1 && page == 2:
				return Null()
			case col == 1:
				return String_(fmt.Sprintf("p%d-%d", page%2, i%9))
			case col == 3:
				return Bool(i%3 == 0)
			case page == 3:
				return Int(int64(i % 4))
			default:
				return floats[i%len(floats)]
			}
		}},
		{"one layout per column", func(page, i, col int) Value {
			if i%11 == page {
				return Null()
			}
			switch col {
			case 0:
				return Int(int64(i%7) - 3)
			case 1:
				return String_([]string{"", "a", "b\xff", "日本", "ab", "p" + strconv.Itoa(page)}[i%6])
			case 2:
				return Bool(i%3 == 0)
			default:
				return floats[i%len(floats)]
			}
		}},
		{"a NULL beside MinInt64", func(page, i, col int) Value {
			switch {
			case col == 0 && i%13 == 0:
				return Null()
			case col == 0:
				return []Value{Int(math.MinInt64), Int(math.MaxInt64), Int(0)}[i%3]
			case col == 1:
				return String_(strconv.Itoa(i % 4))
			default:
				return Float(float64(i % 3))
			}
		}},
	} {
		r := New("a", "b", "c", "d", "id")
		for i := range 3*pageLen + 100 {
			page := i / pageLen
			r.Insert(Tuple{c.cell(page, i, 0), c.cell(page, i, 1), c.cell(page, i, 2), c.cell(page, i, 3), Int(int64(i % 211))})
		}
		layouts := map[ColKind]bool{}
		for b := range r.Batches() {
			for col := range 4 {
				layouts[b.ColKind(col)] = true
			}
		}
		checkOrder(t, c.name, r)
		for _, tu := range r.SortedTuples() {
			if tu[4].AsInt()%3 == 0 {
				r.Delete(tu) // swaps rows across pages, leaves their strings behind
			}
		}
		checkOrder(t, c.name+" after deletes", r)
		if c.name == "layouts per page" && len(layouts) != 5 {
			t.Fatalf("%s: pages laid out as %v", c.name, layouts)
		}
	}
}

// FuzzSortedOrder turns the fuzz input into a relation of three pages and
// more whose rows mix every kind, page by page — a page's layout byte
// decides whether its column holds one kind or several — deletes some
// rows, and holds the order to the reference.
func FuzzSortedOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("\x00\xff\x10\x27mixed pages"))
	vals := [][]Value{
		{Null(), Bool(true), Int(1), Float(0.5), String_("a"), Float(math.NaN()), Int(math.MinInt64)}, // any kind
		{Bool(false), Bool(true), Null()},
		{Int(math.MinInt64), Int(-1), Int(0), Int(7), Int(math.MaxInt64), Null()},
		{Float(math.NaN()), Float(math.Inf(-1)), Float(math.Copysign(0, -1)), Float(1.5), Float(math.Inf(1)), Null()},
		{String_(""), String_("a"), String_("ab"), String_("\xff"), String_("日本"), Null()},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		at := func(i int) int { return int(data[i%len(data)]) }
		r := New("a", "b", "id")
		for i := range 2*pageLen + 1 + at(0)*4 {
			row := Tuple{Int(int64(i % 50))}
			for col := range 2 {
				kinds := vals[at(i/pageLen*2+col)%len(vals)]
				row = append(row, kinds[(at(i+col)+i/3)%len(kinds)])
			}
			r.Insert(Tuple{row[1], row[2], row[0]})
		}
		for i, tu := range r.SortedTuples() {
			if at(i)%4 == 0 {
				r.Delete(tu)
			}
		}
		checkOrder(t, fmt.Sprintf("%q", data), r)
	})
}

// sameTuple is identity of kind and payload, which Equal is not (it calls
// Int(1) and Float(1.0) equal).
func sameTuple(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestGetAndPos(t *testing.T) {
	r := mkRel(t, []string{"a", "b"}, []Value{Int(1), Int(2)})
	tu := r.SortedTuples()[0]
	if r.Get(tu, "b").AsInt() != 2 {
		t.Error("Get by name")
	}
	if p, ok := r.Pos("a"); !ok || p != 0 {
		t.Error("Pos")
	}
	if _, ok := r.Pos("zz"); ok {
		t.Error("Pos of unknown attr")
	}
	assertPanics(t, func() { r.Get(tu, "zz") }, "Get unknown attribute")
}

func TestNewPanics(t *testing.T) {
	assertPanics(t, func() { New("a", "a") }, "duplicate attribute")
	assertPanics(t, func() { New("") }, "empty attribute")
}
