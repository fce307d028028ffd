package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Fixtures mirroring Figure 1 of the paper.
func saleEmp(t *testing.T) (*Relation, *Relation) {
	t.Helper()
	sale := mkRel(t, []string{"item", "clerk"},
		[]Value{String_("TV set"), String_("Mary")},
		[]Value{String_("VCR"), String_("Mary")},
		[]Value{String_("PC"), String_("John")})
	emp := mkRel(t, []string{"clerk", "age"},
		[]Value{String_("Mary"), Int(23)},
		[]Value{String_("John"), Int(25)},
		[]Value{String_("Paula"), Int(32)})
	return sale, emp
}

func TestSelect(t *testing.T) {
	_, emp := saleEmp(t)
	young := Select(emp, func(r Row) bool { return r.Get("age").AsInt() < 30 })
	if young.Len() != 2 {
		t.Fatalf("Len = %d, want 2", young.Len())
	}
	if !young.Contains(Tuple{String_("Mary"), Int(23)}) || !young.Contains(Tuple{String_("John"), Int(25)}) {
		t.Error("wrong selection result")
	}
	none := Select(emp, func(Row) bool { return false })
	if !none.IsEmpty() || !none.AttrSet().Equal(emp.AttrSet()) {
		t.Error("empty selection must keep schema")
	}
}

func TestProject(t *testing.T) {
	sale, _ := saleEmp(t)
	clerks := Project(sale, "clerk")
	if clerks.Len() != 2 { // Mary sold twice: set semantics dedupes.
		t.Fatalf("Len = %d, want 2", clerks.Len())
	}
	if !clerks.Contains(Tuple{String_("Mary")}) || !clerks.Contains(Tuple{String_("John")}) {
		t.Error("wrong projection")
	}
	// Paper convention: projecting onto absent attributes yields the empty
	// relation over those attributes.
	empty := Project(sale, "age")
	if !empty.IsEmpty() || !empty.AttrSet().Equal(NewAttrSet("age")) {
		t.Error("projection onto non-attributes must be empty over Z")
	}
	// Projection can reorder.
	swapped := Project(sale, "clerk", "item")
	if swapped.Len() != 3 || !swapped.Contains(Tuple{String_("Mary"), String_("TV set")}) {
		t.Error("reordering projection broken")
	}
}

func TestNaturalJoinFigure1(t *testing.T) {
	sale, emp := saleEmp(t)
	sold := NaturalJoin(sale, emp)
	if sold.Len() != 3 {
		t.Fatalf("|Sold| = %d, want 3", sold.Len())
	}
	if !sold.AttrSet().Equal(NewAttrSet("item", "clerk", "age")) {
		t.Errorf("Sold attrs = %v", sold.AttrSet())
	}
	want := mkRel(t, []string{"item", "clerk", "age"},
		[]Value{String_("TV set"), String_("Mary"), Int(23)},
		[]Value{String_("VCR"), String_("Mary"), Int(23)},
		[]Value{String_("PC"), String_("John"), Int(25)})
	if !sold.Equal(want) {
		t.Errorf("Sold =\n%s\nwant\n%s", sold, want)
	}
	// Paula has no sale: must not appear.
	if !Select(sold, func(r Row) bool { return r.Get("clerk").AsString() == "Paula" }).IsEmpty() {
		t.Error("dangling Emp tuple appeared in join")
	}
}

func TestNaturalJoinCommutes(t *testing.T) {
	sale, emp := saleEmp(t)
	a := NaturalJoin(sale, emp)
	b := NaturalJoin(emp, sale)
	if !a.Equal(b) {
		t.Error("natural join must commute up to column order")
	}
}

func TestNaturalJoinCartesian(t *testing.T) {
	a := mkRel(t, []string{"x"}, []Value{Int(1)}, []Value{Int(2)})
	b := mkRel(t, []string{"y"}, []Value{Int(10)}, []Value{Int(20)})
	p := NaturalJoin(a, b)
	if p.Len() != 4 {
		t.Errorf("Cartesian |a×b| = %d, want 4", p.Len())
	}
}

func TestNaturalJoinSameSchema(t *testing.T) {
	a := mkRel(t, []string{"x"}, []Value{Int(1)}, []Value{Int(2)})
	b := mkRel(t, []string{"x"}, []Value{Int(2)}, []Value{Int(3)})
	j := NaturalJoin(a, b)
	want := mkRel(t, []string{"x"}, []Value{Int(2)})
	if !j.Equal(want) {
		t.Error("join over identical schemas must be intersection")
	}
}

func TestExtensionJoin(t *testing.T) {
	sale, emp := saleEmp(t)
	got, err := ExtensionJoin(sale, emp, NewAttrSet("clerk"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(NaturalJoin(sale, emp)) {
		t.Error("extension join must agree with natural join when key holds")
	}
	// Key not in shared attributes.
	if _, err := ExtensionJoin(sale, emp, NewAttrSet("age")); err == nil {
		t.Error("key outside shared attrs must error")
	}
	// Right side violating the key.
	dup := emp.Clone()
	dup.InsertValues(String_("Mary"), Int(99))
	if _, err := ExtensionJoin(sale, dup, NewAttrSet("clerk")); err == nil {
		t.Error("key violation must error")
	}
}

func TestExtensionJoinSharedNonKey(t *testing.T) {
	// Shared attributes beyond the key must still be checked for agreement.
	l := mkRel(t, []string{"k", "a"}, []Value{Int(1), Int(10)}, []Value{Int(2), Int(99)})
	r := mkRel(t, []string{"k", "a", "b"}, []Value{Int(1), Int(10), Int(7)}, []Value{Int(2), Int(20), Int(8)})
	got, err := ExtensionJoin(l, r, NewAttrSet("k"))
	if err != nil {
		t.Fatal(err)
	}
	want := mkRel(t, []string{"k", "a", "b"}, []Value{Int(1), Int(10), Int(7)})
	if !got.Equal(want) {
		t.Errorf("got %v", got)
	}
	if !got.Equal(NaturalJoin(l, r)) {
		t.Error("must agree with natural join")
	}
}

func TestUnionDiffIntersect(t *testing.T) {
	a := mkRel(t, []string{"x"}, []Value{Int(1)}, []Value{Int(2)})
	b := mkRel(t, []string{"x"}, []Value{Int(2)}, []Value{Int(3)})

	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 {
		t.Errorf("|a∪b| = %d", u.Len())
	}
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(mkRel(t, []string{"x"}, []Value{Int(1)})) {
		t.Errorf("a∖b = %v", d)
	}
	i, err := Intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !i.Equal(mkRel(t, []string{"x"}, []Value{Int(2)})) {
		t.Errorf("a∩b = %v", i)
	}

	c := mkRel(t, []string{"y"}, []Value{Int(1)})
	for _, f := range []func(*Relation, *Relation) (*Relation, error){Union, Diff, Intersect} {
		if _, err := f(a, c); err == nil {
			t.Error("schema-mismatched set operation must error")
		}
	}
}

func TestUnionAlignsColumns(t *testing.T) {
	a := mkRel(t, []string{"x", "y"}, []Value{Int(1), Int(2)})
	b := mkRel(t, []string{"y", "x"}, []Value{Int(2), Int(1)}, []Value{Int(4), Int(3)})
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Errorf("|union| = %d, want 2 (aligned duplicate must collapse)", u.Len())
	}
	if !u.Contains(Tuple{Int(3), Int(4)}) {
		t.Error("aligned tuple missing")
	}
}

func TestRename(t *testing.T) {
	a := mkRel(t, []string{"x", "y"}, []Value{Int(1), Int(2)})
	r, err := Rename(a, map[string]string{"x": "z"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AttrSet().Equal(NewAttrSet("z", "y")) || !r.Contains(Tuple{Int(1), Int(2)}) {
		t.Errorf("rename result wrong: %v", r)
	}
	if _, err := Rename(a, map[string]string{"q": "z"}); err == nil {
		t.Error("rename of unknown attribute must error")
	}
	if _, err := Rename(a, map[string]string{"x": "y"}); err == nil {
		t.Error("rename creating duplicates must error")
	}
}

func TestSemiJoin(t *testing.T) {
	r := mkRel(t, []string{"a", "b"},
		[]Value{Int(1), Int(10)},
		[]Value{Int(2), Int(20)},
		[]Value{Int(3), Int(30)})
	probe := mkRel(t, []string{"a"}, []Value{Int(1)}, []Value{Int(3)}, []Value{Int(9)})
	got := SemiJoin(r, probe)
	want := mkRel(t, []string{"a", "b"}, []Value{Int(1), Int(10)}, []Value{Int(3), Int(30)})
	if !got.Equal(want) {
		t.Errorf("SemiJoin = %v", got)
	}
	// Empty probe → empty result.
	if !SemiJoin(r, New("a")).IsEmpty() {
		t.Error("empty probe must yield empty result")
	}
	// Probe over foreign attributes → empty result.
	foreign := mkRel(t, []string{"z"}, []Value{Int(1)})
	if !SemiJoin(r, foreign).IsEmpty() {
		t.Error("foreign probe must yield empty result")
	}
	// Full-schema probe behaves like intersection.
	full := mkRel(t, []string{"b", "a"}, []Value{Int(20), Int(2)})
	got = SemiJoin(r, full)
	if got.Len() != 1 || !got.Contains(Tuple{Int(2), Int(20)}) {
		t.Errorf("full probe = %v", got)
	}
}

// randomRel builds a pseudo-random relation over attrs with n tuples drawn
// from a small domain (so overlaps occur).
func randomRel(rng *rand.Rand, attrs []string, n int) *Relation {
	r := New(attrs...)
	for i := 0; i < n; i++ {
		t := make(Tuple, len(attrs))
		for j := range attrs {
			t[j] = Int(int64(rng.Intn(8)))
		}
		r.Insert(t)
	}
	return r
}

func TestAlgebraicIdentitiesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			vals[0] = reflect.ValueOf(randomRel(rng, []string{"a", "b"}, rng.Intn(20)))
			vals[1] = reflect.ValueOf(randomRel(rng, []string{"b", "c"}, rng.Intn(20)))
			vals[2] = reflect.ValueOf(randomRel(rng, []string{"a", "b"}, rng.Intn(20)))
		},
	}

	// (r ∖ s) ∪ (r ∩ s) = r
	f := func(r, _ *Relation, s *Relation) bool {
		d, err1 := Diff(r, s)
		i, err2 := Intersect(r, s)
		if err1 != nil || err2 != nil {
			return false
		}
		u, err := Union(d, i)
		return err == nil && u.Equal(r)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("difference/intersection identity: %v", err)
	}

	// π_b(r ⋈ s) ⊆ π_b(r) ∩ π_b(s)
	g := func(r, s *Relation, _ *Relation) bool {
		j := Project(NaturalJoin(r, s), "b")
		i, err := Intersect(Project(r, "b"), Project(s, "b"))
		return err == nil && j.SubsetOf(i)
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Errorf("join projection containment: %v", err)
	}

	// Join is idempotent on one input: r ⋈ r = r.
	h := func(r, _ *Relation, _ *Relation) bool {
		return NaturalJoin(r, r).Equal(r)
	}
	if err := quick.Check(h, cfg); err != nil {
		t.Errorf("join idempotence: %v", err)
	}
}
