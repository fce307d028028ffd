package dwc_test

// Property tests for the columnar batch engine: on randomized relations —
// including NULLs and mixed value kinds, which put their pages in the
// generic (ColAny) layout — every hashed/vectorized operator must agree
// tuple-for-tuple with an independent reference implementation backed by
// plain Go maps over canonical string encodings. The reference shares no code with the
// relation package's membership machinery, so a hashing or batching bug
// cannot cancel itself out of the comparison.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/relation"
)

// canonValue encodes a value canonically under relation.Value.Equal:
// numerically equal int/float values encode identically, -0.0 as 0.0, and
// every NaN alike.
func canonValue(v relation.Value) string {
	switch v.Kind() {
	case relation.KindNull:
		return "n"
	case relation.KindBool:
		if v.AsBool() {
			return "b1"
		}
		return "b0"
	case relation.KindInt, relation.KindFloat:
		f := v.AsFloat()
		if v.Kind() == relation.KindInt && int64(f) != v.AsInt() {
			return "i" + strconv.FormatInt(v.AsInt(), 10)
		}
		if f == 0 {
			f = 0 // collapse -0.0
		}
		if math.IsNaN(f) {
			return "fnan"
		}
		return "f" + strconv.FormatFloat(f, 'g', -1, 64)
	case relation.KindString:
		return "s" + strconv.Itoa(len(v.AsString())) + ":" + v.AsString()
	default:
		return "?"
	}
}

// refSet is the reference relation: a set of tuples keyed by the
// canonical encoding of their values in sorted attribute order.
type refSet struct {
	attrs []string // sorted
	rows  map[string]relation.Tuple
}

func newRefSet(attrs []string) *refSet {
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	return &refSet{attrs: sorted, rows: make(map[string]relation.Tuple)}
}

// keyFor encodes tuple t (laid out in r's column order) in sorted
// attribute order, so layout never affects identity.
func (s *refSet) keyFor(r *relation.Relation, t relation.Tuple) string {
	key := ""
	for _, a := range s.attrs {
		p, _ := r.Pos(a)
		key += canonValue(t[p]) + "|"
	}
	return key
}

func (s *refSet) addFrom(r *relation.Relation, t relation.Tuple) {
	s.rows[s.keyFor(r, t)] = t
}

// fromRelation snapshots a relation into the reference representation.
func fromRelation(r *relation.Relation) *refSet {
	s := newRefSet(r.Attrs())
	for t := range r.All() {
		s.addFrom(r, t)
	}
	return s
}

// equalRelation checks the operator result against the reference set.
func (s *refSet) equalRelation(t *testing.T, label string, r *relation.Relation) {
	t.Helper()
	if r.Len() != len(s.rows) {
		t.Fatalf("%s: got %d tuples, reference has %d", label, r.Len(), len(s.rows))
	}
	for tu := range r.All() {
		if _, ok := s.rows[s.keyFor(r, tu)]; !ok {
			t.Fatalf("%s: result tuple %v not in reference", label, tu)
		}
	}
}

// randomValue draws from a small mixed-kind domain with NULLs, numeric
// int/float collisions (Int(k) vs Float(k)), negative zero, and strings
// drawn from a small pool.
func randomValue(rng *rand.Rand, stringPool int) relation.Value {
	switch rng.Intn(10) {
	case 0:
		return relation.Null()
	case 1:
		return relation.Bool(rng.Intn(2) == 0)
	case 2, 3:
		return relation.Float(float64(rng.Intn(6)) - 2.5)
	case 4:
		if rng.Intn(4) == 0 {
			return relation.Float(math.Copysign(0, -1))
		}
		return relation.Float(float64(rng.Intn(4)))
	case 5, 6:
		return relation.Int(int64(rng.Intn(6)))
	default:
		return relation.String_("s" + strconv.Itoa(rng.Intn(stringPool)))
	}
}

func randomRelation(rng *rand.Rand, attrs []string, n, stringPool int) *relation.Relation {
	r := relation.New(attrs...)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, len(attrs))
		for j := range t {
			t[j] = randomValue(rng, stringPool)
		}
		r.Insert(t)
	}
	return r
}

// refNaturalJoin joins via a map over the shared columns' canonical keys.
func refNaturalJoin(l, r *relation.Relation) *refSet {
	var shared []string
	var rOnly []string
	for _, a := range r.Attrs() {
		if l.HasAttr(a) {
			shared = append(shared, a)
		} else {
			rOnly = append(rOnly, a)
		}
	}
	sort.Strings(shared)
	keyOf := func(rel *relation.Relation, t relation.Tuple) string {
		k := ""
		for _, a := range shared {
			p, _ := rel.Pos(a)
			k += canonValue(t[p]) + "|"
		}
		return k
	}
	buckets := make(map[string][]relation.Tuple)
	for t := range r.All() {
		buckets[keyOf(r, t)] = append(buckets[keyOf(r, t)], t)
	}
	outAttrs := append(append([]string(nil), l.Attrs()...), rOnly...)
	out := newRefSet(outAttrs)
	tmp := relation.New(outAttrs...)
	for lt := range l.All() {
		for _, rt := range buckets[keyOf(l, lt)] {
			row := append([]relation.Value(nil), lt...)
			for _, a := range rOnly {
				p, _ := r.Pos(a)
				row = append(row, rt[p])
			}
			out.addFrom(tmp, row)
		}
	}
	return out
}

// refSemiJoin keeps r-tuples whose probe-column projection appears in
// probe, via a map of canonical keys.
func refSemiJoin(r, probe *relation.Relation) *refSet {
	pAttrs := append([]string(nil), probe.Attrs()...)
	sort.Strings(pAttrs)
	seen := make(map[string]bool)
	for t := range probe.All() {
		k := ""
		for _, a := range pAttrs {
			p, _ := probe.Pos(a)
			k += canonValue(t[p]) + "|"
		}
		seen[k] = true
	}
	out := newRefSet(r.Attrs())
	for t := range r.All() {
		k := ""
		for _, a := range pAttrs {
			p, _ := r.Pos(a)
			k += canonValue(t[p]) + "|"
		}
		if seen[k] {
			out.addFrom(r, t)
		}
	}
	return out
}

// refDiff and refIntersect compare full-width canonical keys.
func refDiff(l, r *relation.Relation) *refSet {
	rs := fromRelation(r)
	out := newRefSet(l.Attrs())
	for t := range l.All() {
		if _, ok := rs.rows[rs.keyFor(l, t)]; !ok {
			out.addFrom(l, t)
		}
	}
	return out
}

func refIntersect(l, r *relation.Relation) *refSet {
	rs := fromRelation(r)
	out := newRefSet(l.Attrs())
	for t := range l.All() {
		if _, ok := rs.rows[rs.keyFor(l, t)]; ok {
			out.addFrom(l, t)
		}
	}
	return out
}

func refUnion(l, r *relation.Relation) *refSet {
	out := newRefSet(l.Attrs())
	for t := range l.All() {
		out.addFrom(l, t)
	}
	for t := range r.All() {
		out.addFrom(r, t)
	}
	return out
}

func refProject(r *relation.Relation, attrs ...string) *refSet {
	out := newRefSet(attrs)
	tmp := relation.New(attrs...)
	for t := range r.All() {
		row := make(relation.Tuple, len(attrs))
		for i, a := range attrs {
			p, _ := r.Pos(a)
			row[i] = t[p]
		}
		out.addFrom(tmp, row)
	}
	return out
}

// refSelectEq keeps the tuples of r whose attribute a equals — by
// canonical encoding, the reference's notion of Value.Equal — the constant
// k or, when other is set, the tuple's own attribute other.
func refSelectEq(r *relation.Relation, a string, k relation.Value, other string) *refSet {
	out := newRefSet(r.Attrs())
	p, _ := r.Pos(a)
	for t := range r.All() {
		want := canonValue(k)
		if other != "" {
			q, _ := r.Pos(other)
			want = canonValue(t[q])
		}
		if canonValue(t[p]) == want {
			out.addFrom(r, t)
		}
	}
	return out
}

// checkSelect asserts σ over compiled batch predicates = σ over EvalCond
// row by row = reference for one condition.
func checkSelect(t *testing.T, label string, r *relation.Relation, c algebra.Cond, ref *refSet) {
	t.Helper()
	ref.equalRelation(t, label+" scalar", relation.Select(r, func(row relation.Row) bool { return algebra.EvalCond(c, row) }))
	ref.equalRelation(t, label+" vectorized", relation.SelectBatch(r, algebra.CompileBatchPred(c, r.Attrs())))
}

// TestColumnarOpsMatchMapReference drives every hashed operator, and the
// vectorized selection, against the map-backed reference on randomized
// relations with NULLs and mixed kinds: every column of every page here is
// in the generic (ColAny) layout.
func TestColumnarOpsMatchMapReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		l := randomRelation(rng, []string{"a", "b", "c"}, n, 12)
		r := randomRelation(rng, []string{"b", "c", "d"}, n, 12)
		same := randomRelation(rng, []string{"a", "b", "c"}, n, 12)

		refNaturalJoin(l, r).equalRelation(t, "join", relation.NaturalJoin(l, r))

		probe := relation.Project(r, "b")
		refSemiJoin(l, probe).equalRelation(t, "semijoin", relation.SemiJoin(l, probe))
		full := l.Clone()
		refSemiJoin(l, full).equalRelation(t, "semijoin-full", relation.SemiJoin(l, full))

		d, err := relation.Diff(l, same)
		if err != nil {
			t.Fatal(err)
		}
		refDiff(l, same).equalRelation(t, "diff", d)

		in, err := relation.Intersect(l, same)
		if err != nil {
			t.Fatal(err)
		}
		refIntersect(l, same).equalRelation(t, "intersect", in)

		un, err := relation.Union(l, same)
		if err != nil {
			t.Fatal(err)
		}
		refUnion(l, same).equalRelation(t, "union", un)

		refProject(l, "b", "a").equalRelation(t, "project", relation.Project(l, "b", "a"))

		for b := range l.Batches() {
			if k := b.ColKind(0); k != relation.ColAny {
				t.Fatalf("seed %d: a mixed-kind page is laid out as %v", seed, k)
			}
		}
		k := randomValue(rng, 12)
		checkSelect(t, "select a = "+k.String(), l, algebra.AttrCmpConst("a", algebra.OpEq, k), refSelectEq(l, "a", k, ""))
		checkSelect(t, "select a = b", l, algebra.AttrCmpAttr("a", algebra.OpEq, "b"), refSelectEq(l, "a", k, "b"))

		// Membership through the open-addressed table must agree with the
		// canonical-key reference for present and absent tuples alike.
		ls := fromRelation(l)
		for tu := range same.All() {
			_, want := ls.rows[ls.keyFor(same, tu)]
			if got := l.ContainsAligned(tu, same); got != want {
				t.Fatalf("seed %d: Contains(%v) = %v, reference %v", seed, tu, got, want)
			}
		}

		// The cells a page stores are the values inserted, bit for bit, through
		// the mutations too: NaN, −0, NULL and Int(2) beside Float(2) survive
		// insert → Clone → delete → PageSection → DecodePages.
		mut := l.Clone()
		for _, tu := range []relation.Tuple{
			{relation.Float(math.NaN()), relation.Float(math.Copysign(0, -1)), relation.Null()},
			{relation.Int(2), relation.Float(2), relation.String_("odd")},
			{relation.Float(2), relation.Int(2), relation.Null()},
		} {
			mut.Insert(tu)
		}
		cut := mut.Clone()
		for tu := range mut.All() {
			cut.Delete(tu) // the first row: the last one moves into its place
			break
		}
		secs := make([]relation.Section, cut.NumPages())
		for pi := range secs {
			sec, _ := cut.PageSection(pi)
			secs[pi] = *sec
		}
		back, err := relation.DecodePages(cut.Attrs(), uint64(cut.Len()), secs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromRelation(cut).equalRelation(t, "decoded after mutations", back)
		want := cut.SortedTuples()
		for i, row := range back.SortedTuples() {
			for j, v := range row {
				if w := want[i][j]; v.Kind() != w.Kind() || !v.Equal(w) || math.Float64bits(v.AsFloat()) != math.Float64bits(w.AsFloat()) {
					t.Fatalf("seed %d: row %d column %d decodes to %v (%v), the page held %v (%v)", seed, i, j, v, v.Kind(), w, w.Kind())
				}
			}
		}
		if !mut.Contains(relation.Tuple{relation.Float(math.NaN()), relation.Float(0), relation.Null()}) {
			t.Fatalf("seed %d: the NaN row is not a member of the relation it was inserted into", seed)
		}
	}
}

// TestPageLayoutIsChosenPerPage pins the layout rule of the row pages:
// each page of a relation picks its own layout, null bitmap and string
// dictionary, so one column can be typed on one page and generic on the
// next, a dictionary holds the strings of its page alone — at most one per
// row, so no width of column can overflow it — and a selection over pages
// of different layouts agrees with EvalCond row by row. The write side:
// the insert that mixes kinds promotes its page's column and no other
// page's, a delete's swap moves cells between pages of different layouts
// and dictionaries, and deletes that empty the last page drop it.
func TestPageLayoutIsChosenPerPage(t *testing.T) {
	const size = relation.BatchSize
	r := relation.New("id", "v", "s")
	for i := 0; i < 3*size+100; i++ {
		var v, s relation.Value
		switch page := i / size; {
		case i%97 == 13 && page != 0:
			v = relation.Null()
		case page == 0:
			v = relation.Int(int64(i % 10))
		case page == 1: // mixed kinds: the generic layout
			v = []relation.Value{relation.Int(int64(i % 10)), relation.String_("x"), relation.Float(2.5), relation.Bool(true)}[i%4]
		case page == 2:
			v = relation.Float(float64(i%10) + 0.5)
		default:
			v = relation.String_("v" + strconv.Itoa(i%10))
		}
		if i/size == 2 { // a page of pairwise distinct strings
			s = relation.String_("unique" + strconv.Itoa(i))
		} else {
			s = relation.String_("p" + strconv.Itoa(i/size) + "-" + strconv.Itoa(i%7))
		}
		r.InsertValues(relation.Int(int64(i)), v, s)
	}
	wantKind := []relation.ColKind{relation.ColInt, relation.ColAny, relation.ColFloat, relation.ColString}
	wantDict := []int{7, 7, size, 7}
	rows := r.SortedTuples() // id order = insertion order = storage order
	for b := range r.Batches() {
		page := b.Start() / size
		if got := b.ColKind(1); got != wantKind[page] {
			t.Errorf("page %d: column v is laid out as %v, want %v", page, got, wantKind[page])
		}
		if got := b.HasNulls(1); got != (page != 0) {
			t.Errorf("page %d: HasNulls(v) = %v", page, got)
		}
		if k, d := b.ColKind(2), b.Dict(2); k != relation.ColString || d.Len() != wantDict[page] {
			t.Errorf("page %d: column s is %v with a dictionary of %d strings, want %d", page, k, d.Len(), wantDict[page])
		}
		if b.Dict(1) != nil && page != 3 {
			t.Errorf("page %d: a non-string layout carries a dictionary", page)
		}
		for i := 0; i < b.Len(); i++ {
			for c, want := range rows[b.Start()+i] {
				if got := b.Value(c, i); !got.Equal(want) {
					t.Fatalf("row %d column %d decodes to %v, the row holds %v", b.Start()+i, c, got, want)
				}
			}
		}
		if codes := b.Codes(2); b.Dict(2).Value(codes[0]) != rows[b.Start()][2].AsString() {
			t.Errorf("page %d: code %d does not decode through the page's own dictionary", page, codes[0])
		}
	}
	for _, c := range []algebra.Cond{
		algebra.AttrCmpConst("v", algebra.OpGe, relation.Int(3)),          // int, generic and float pages answer; the string page cannot
		algebra.AttrCmpConst("v", algebra.OpEq, relation.Null()),          // NULL rows of three pages
		algebra.AttrCmpConst("s", algebra.OpLe, relation.String_("p1-3")), // a verdict table per page dictionary
		algebra.AttrCmpAttr("v", algebra.OpLt, "id"),                      // typed × typed, generic × typed
		&algebra.Not{C: algebra.AttrCmpAttr("v", algebra.OpNe, "s")},      // string × string across two dictionaries
		&algebra.Or{L: algebra.AttrCmpConst("v", algebra.OpLt, relation.Float(1)), R: algebra.AttrCmpConst("v", algebra.OpEq, relation.String_("v4"))},
	} {
		want := relation.Select(r, func(row relation.Row) bool { return algebra.EvalCond(c, row) })
		got := relation.SelectBatch(r, algebra.CompileBatchPred(c, r.Attrs()))
		if !got.Equal(want) || want.IsEmpty() || want.Len() == r.Len() {
			t.Errorf("σ{%v}: vectorized selects %d rows, scalar %d of %d", c, got.Len(), want.Len(), r.Len())
		}
	}
	// An operator output whose v holds only the NULLs of the string page:
	// where the column takes the string layout its dictionary is not empty
	// (a NULL row's code must decode), and a σ on a string constant over it
	// selects nothing.
	nulls := algebra.SelectCond(r, &algebra.And{
		L: algebra.AttrCmpConst("v", algebra.OpEq, relation.Null()),
		R: algebra.AttrCmpConst("id", algebra.OpGe, relation.Int(3*size)),
	}, nil)
	for b := range nulls.Batches() {
		if k := b.ColKind(1); k == relation.ColString && b.Dict(1).Len() == 0 {
			t.Errorf("a page of %d NULLs taken from the string page has an empty dictionary", b.Len())
		}
	}
	if got := algebra.SelectCond(nulls, algebra.AttrCmpConst("v", algebra.OpLe, relation.String_("v4")), nil); nulls.IsEmpty() || !got.IsEmpty() {
		t.Errorf("σ{v <= 'v4'} over %d NULL rows selects %d", nulls.Len(), got.Len())
	}

	// The rule on the write side, on a clone of r (whose pages it shares
	// until it writes them). A swap-with-last delete on the float page moves
	// the last row — a string v, and an s its dictionary, full with the
	// page's distinct strings, has no room for — into it: v and s turn
	// ColAny there. An insert that mixes kinds promotes its page's column,
	// and no other page's. Deletes that empty the last page drop it.
	m := r.Clone()
	model := map[int64]relation.Tuple{}
	for _, tu := range rows {
		model[tu[0].AsInt()] = tu
	}
	kinds := func(rel *relation.Relation, c int) (ks []relation.ColKind) {
		for b := range rel.Batches() {
			ks = append(ks, b.ColKind(c))
		}
		return ks
	}
	check := func(what string, wantV, wantS []relation.ColKind) {
		t.Helper()
		if got := kinds(m, 1); !slices.Equal(got, wantV) {
			t.Errorf("%s: column v is laid out as %v, want %v", what, got, wantV)
		}
		if got := kinds(m, 2); !slices.Equal(got, wantS) {
			t.Errorf("%s: column s is laid out as %v, want %v", what, got, wantS)
		}
		if got := kinds(r, 1); !slices.Equal(got, wantKind) {
			t.Errorf("%s: the relation the writer cloned has v laid out as %v", what, got)
		}
		if m.Len() != len(model) {
			t.Fatalf("%s: %d rows, the model has %d", what, m.Len(), len(model))
		}
		for b := range m.Batches() {
			if d := b.Dict(2); d != nil && d.Len() > relation.BatchSize {
				t.Errorf("%s: page %d's s dictionary holds %d strings", what, b.Start()/size, d.Len())
			}
			for i := range b.Len() {
				want, ok := model[b.Value(0, i).AsInt()]
				for c := range 3 {
					if !ok || b.Value(c, i).Kind() != want[c].Kind() || !b.Value(c, i).Equal(want[c]) {
						t.Fatalf("%s: row %d column %d holds %v, the model %v", what, b.Start()+i, c, b.Value(c, i), want)
					}
				}
			}
		}
	}
	del := func(id int) {
		if !m.Delete(model[int64(id)]) {
			t.Fatalf("delete of row %d failed", id)
		}
		delete(model, int64(id))
	}
	str, any := relation.ColString, relation.ColAny
	del(2*size + 5)
	check("after a delete on the float page", []relation.ColKind{relation.ColInt, any, any, str}, []relation.ColKind{str, str, any, str})
	mixed := relation.Tuple{relation.Int(-1), relation.Int(7), relation.String_("p3-new")}
	m.Insert(mixed)
	model[-1] = mixed
	check("after an insert of an int into the string page", []relation.ColKind{relation.ColInt, any, any, any}, []relation.ColKind{str, str, any, str})
	for id := 3*size + 98; id >= 3*size; id-- { // the last page's other rows, newest first
		del(id)
	}
	del(-1)
	if m.NumPages() != 3 {
		t.Fatalf("the deletes left %d pages, want 3", m.NumPages())
	}
	check("after the deletes that emptied the last page", []relation.ColKind{relation.ColInt, any, any}, []relation.ColKind{str, str, any})
}
