package star

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dwcomplement/internal/aggregate"
	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
	"dwcomplement/internal/warehouse"
)

func buildBusiness(t *testing.T, slim bool) (*Business, *catalog.State, *warehouse.Warehouse) {
	t.Helper()
	b, err := NewBusiness([]string{"paris", "tokyo", "austin"}, slim)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Populate(20, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.BuildWarehouse(st)
	if err != nil {
		t.Fatal(err)
	}
	return b, st, w
}

func refresh(t *testing.T, m *maintain.Maintainer, w *warehouse.Warehouse, u *catalog.Update) {
	t.Helper()
	if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
		t.Fatal(err)
	}
}

// sameWarehouse reports the first relation on which got differs from want.
func sameWarehouse(t *testing.T, what string, got, want algebra.MapState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d relations, want %d", what, len(got), len(want))
	}
	for name, r := range want {
		if g, ok := got[name]; !ok || !g.Equal(r) {
			t.Fatalf("%s: %s differs:\ngot  %v\nwant %v", what, name, g, r)
		}
	}
}

func TestBusinessFullFactZeroComplement(t *testing.T) {
	// With the full fact table (all order attributes) and foreign keys,
	// every complement is proved empty: dimensions are copied, and each
	// order relation is exactly recoverable from its fact-table slice.
	_, _, w := buildBusiness(t, false)
	if n := len(w.Complement().StoredEntries()); n != 0 {
		t.Errorf("stored complements = %d, want 0:\n%s", n, w.Complement())
	}
}

func TestBusinessSlimFactNeedsComplement(t *testing.T) {
	// Dropping the qty measure from the fact table makes the per-site
	// order complements non-empty.
	b, _, w := buildBusiness(t, true)
	stored := w.Complement().StoredEntries()
	if len(stored) != len(b.Sites) {
		t.Errorf("stored complements = %d, want one per site", len(stored))
	}
}

func TestOriginDetermination(t *testing.T) {
	// σ_{loc='paris'}(Orders) must equal the paris site's order relation
	// (projected onto the fact schema), and W⁻¹ must read the paris orders
	// exactly that way: the per-site part is not a warehouse relation.
	b, err := NewBusiness([]string{"paris", "tokyo"}, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Populate(10, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.BuildWarehouse(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Relation("Orders@paris"); ok {
		t.Error("a fact part is stored as a warehouse relation")
	}
	slice := algebra.NewSelect(algebra.NewBase("Orders"), algebra.AttrEqConst("loc", relation.String_("paris")))
	part, err := algebra.EvalCtx(nil, slice, w)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := st.Relation(OrderRelation("paris"))
	if !part.Equal(want) {
		t.Errorf("origin selection wrong:\ngot  %v\nwant %v", part, want)
	}
	e, _ := w.Complement().Entry(OrderRelation("paris"))
	if !algebra.Equal(e.Inverse, slice) {
		t.Errorf("W⁻¹(Order_paris) = %s, want %s", e.Inverse, slice)
	}
}

func TestStarReconstruction(t *testing.T) {
	for _, slim := range []bool{false, true} {
		b, err := NewBusiness([]string{"paris", "tokyo"}, slim)
		if err != nil {
			t.Fatal(err)
		}
		st, err := b.Populate(12, 20, 11)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.BuildWarehouse(st)
		if err != nil {
			t.Fatal(err)
		}
		bases, err := w.ReconstructBases()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range b.DB.Names() {
			orig, _ := st.Relation(name)
			if !bases[name].Equal(orig) {
				t.Errorf("slim=%v: reconstruction of %s wrong", slim, name)
			}
		}
	}
}

func TestStarQueryTranslation(t *testing.T) {
	b, err := NewBusiness([]string{"paris", "tokyo"}, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Populate(10, 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.BuildWarehouse(st)
	if err != nil {
		t.Fatal(err)
	}
	// Source query: names of customers with a paris order of ≥ 10 units.
	q := algebra.NewProject(
		algebra.NewJoin(
			algebra.NewSelect(algebra.NewBase(OrderRelation("paris")),
				algebra.AttrCmpConst("qty", algebra.OpGe, relation.Int(10))),
			algebra.NewBase("Customer")),
		"cname")
	qHat, err := w.TranslateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Translated query must only mention warehouse names.
	for base := range algebra.Bases(qHat) {
		switch base {
		case "Orders", "DimCustomer", "DimPart", "DimSite":
		default:
			t.Errorf("translated query references %q: %s", base, qHat)
		}
	}
	got, _, err := w.AnswerContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.EvalCtx(nil, q, st)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("star answer = %v, want %v", got, want)
	}
}

func TestStarRefresh(t *testing.T) {
	for _, slim := range []bool{false, true} {
		b, err := NewBusiness([]string{"paris", "tokyo"}, slim)
		if err != nil {
			t.Fatal(err)
		}
		st, err := b.Populate(10, 20, 13)
		if err != nil {
			t.Fatal(err)
		}
		w, err := b.BuildWarehouse(st)
		if err != nil {
			t.Fatal(err)
		}
		m := maintain.NewMaintainer(w.Complement())
		cur := st.Clone()
		for round := 0; round < 8; round++ {
			u := b.RandomOrderUpdate(cur, 3, 2, int64(round))
			refresh(t, m, w, u)
			if err := u.Apply(cur); err != nil {
				t.Fatal(err)
			}
		}
		// The refreshed warehouse equals a fresh build from the final state.
		fresh, err := b.BuildWarehouse(cur)
		if err != nil {
			t.Fatal(err)
		}
		sameWarehouse(t, "after refreshes", w.State(), fresh.State())
	}
}

// vetoOnce fails the first delta it sees for one target.
type vetoOnce struct {
	target string
	fired  bool
}

func (v *vetoOnce) Consume(target string, _ maintain.Delta, _ *relation.Relation) error {
	if target != v.target || v.fired {
		return nil
	}
	v.fired = true
	return errors.New("veto")
}

// TestStarRefreshAtomic: a consumer that fails on the fact table leaves
// every warehouse relation and every aggregate registered after it as they
// were, and the same update then goes through and matches a fresh build.
func TestStarRefreshAtomic(t *testing.T) {
	b, st, w := buildBusiness(t, false)
	m := maintain.NewMaintainer(w.Complement())
	m.AddConsumer(&vetoOnce{target: "Orders"})
	orders, _ := w.Relation("Orders")
	aggs := []*aggregate.View{
		aggregate.New("QtyPerSite", "Orders", []string{"loc"}, aggregate.Sum, "qty"),
		aggregate.New("MaxQtyPerSite", "Orders", []string{"loc"}, aggregate.Max, "qty"),
	}
	var before []*relation.Relation
	for _, a := range aggs {
		if err := a.Initialize(orders); err != nil {
			t.Fatal(err)
		}
		m.AddConsumer(a)
		before = append(before, a.Result())
	}
	pre := w.CloneState()

	u := b.RandomOrderUpdate(st, 4, 3, 1)
	if _, err := m.RefreshContext(context.Background(), w, u); err == nil || !strings.Contains(err.Error(), "veto") {
		t.Fatalf("refresh error = %v, want the consumer's veto", err)
	}
	sameWarehouse(t, "after the vetoed refresh", w.State(), pre)
	for i, a := range aggs {
		if !a.Result().Equal(before[i]) {
			t.Errorf("%s changed by the vetoed refresh", a.Name)
		}
	}

	refresh(t, m, w, u)
	post := st.Clone()
	if err := u.Apply(post); err != nil {
		t.Fatal(err)
	}
	fresh, err := b.BuildWarehouse(post)
	if err != nil {
		t.Fatal(err)
	}
	sameWarehouse(t, "after the retry", w.State(), fresh.State())
	orders, _ = fresh.Relation("Orders")
	for _, a := range aggs {
		want, err := aggregate.Recompute(a, orders)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Result().Equal(want) {
			t.Errorf("%s after the retry = %v, want %v", a.Name, a.Result(), want)
		}
	}
}

func TestFactSpecValidation(t *testing.T) {
	b, err := NewBusiness([]string{"paris"}, false)
	if err != nil {
		t.Fatal(err)
	}
	st := b.DB.NewState()

	// Part missing the origin attribute.
	badFact := &FactSpec{Name: "F", OriginAttr: "loc", Parts: []FactPart{{
		Origin: relation.String_("paris"),
		View:   mustPSJ(t, "p", []string{"okey", "ckey"}, "Order_paris"),
	}}}
	if _, err := Build(b.DB, nil, []*FactSpec{badFact}, coreOpts(), st); err == nil {
		t.Error("part without origin attribute accepted")
	}
	// Duplicate origins.
	dup := &FactSpec{Name: "F", OriginAttr: "loc", Parts: []FactPart{
		{Origin: relation.String_("paris"), View: mustPSJ(t, "a", []string{"okey", "loc"}, "Order_paris")},
		{Origin: relation.String_("paris"), View: mustPSJ(t, "b", []string{"okey", "loc"}, "Order_paris")},
	}}
	if _, err := Build(b.DB, nil, []*FactSpec{dup}, coreOpts(), st); err == nil {
		t.Error("duplicate origins accepted")
	}
	// No parts.
	if _, err := Build(b.DB, nil, []*FactSpec{{Name: "F", OriginAttr: "loc"}}, coreOpts(), st); err == nil {
		t.Error("fact without parts accepted")
	}
	// Mismatched part schemas.
	mismatch := &FactSpec{Name: "F", OriginAttr: "loc", Parts: []FactPart{
		{Origin: relation.String_("a"), View: mustPSJ(t, "a", []string{"okey", "loc"}, "Order_paris")},
		{Origin: relation.String_("b"), View: mustPSJ(t, "b", []string{"okey", "ckey", "loc"}, "Order_paris")},
	}}
	if _, err := Build(b.DB, nil, []*FactSpec{mismatch}, coreOpts(), st); err == nil {
		t.Error("mismatched part schemas accepted")
	}
	// A fact table named like a base relation.
	clash := &FactSpec{Name: "Customer", OriginAttr: "loc", Parts: []FactPart{
		{Origin: relation.String_("paris"), View: mustPSJ(t, "a", []string{"okey", "loc"}, "Order_paris")},
	}}
	if _, err := Build(b.DB, nil, []*FactSpec{clash}, coreOpts(), st); err == nil {
		t.Error("fact table named after a base relation accepted")
	}
}

func TestBusinessErrors(t *testing.T) {
	if _, err := NewBusiness(nil, false); err == nil {
		t.Error("business without sites accepted")
	}
}

func mustPSJ(t *testing.T, name string, proj []string, bases ...string) *view.PSJ {
	t.Helper()
	return view.NewPSJ(name, proj, nil, bases...)
}

func coreOpts() core.Options { return core.Theorem22() }

// TestStarSizeAndString: the warehouse stores the dimensions and one
// relation per fact table, and the complement's rendering writes W⁻¹ over
// those names.
func TestStarSizeAndString(t *testing.T) {
	_, _, w := buildBusiness(t, false)
	if w.Size() == 0 {
		t.Error("Size = 0")
	}
	if got, want := strings.Join(w.Names(), " "), "DimCustomer DimPart DimSite Orders"; got != want {
		t.Errorf("Names = %s, want %s", got, want)
	}
	s := w.Complement().String()
	for _, want := range []string{"Order_paris = σ{loc = 'paris'}(Orders)", "Order_austin = σ{loc = 'austin'}(Orders)"} {
		if !strings.Contains(s, want) {
			t.Errorf("complement rendering missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "@") {
		t.Errorf("complement rendering names a fact part:\n%s", s)
	}
}
