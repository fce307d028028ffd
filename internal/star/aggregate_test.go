package star

import (
	"testing"

	"dwcomplement/internal/aggregate"
	"dwcomplement/internal/maintain"
)

// TestAggregateOverFactTable drives Section 5's OLAP layer end to end: a
// SUM-per-site summary over the union-integrated fact table stays exact
// through warehouse-only refreshes.
func TestAggregateOverFactTable(t *testing.T) {
	b, err := NewBusiness([]string{"paris", "tokyo"}, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Populate(15, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.BuildWarehouse(st)
	if err != nil {
		t.Fatal(err)
	}
	m := maintain.NewMaintainer(w.Complement())

	sum := aggregate.New("QtyPerSite", "Orders", []string{"loc"}, aggregate.Sum, "qty")
	cnt := aggregate.New("OrdersPerSite", "Orders", []string{"loc"}, aggregate.Count, "qty")
	maxV := aggregate.New("MaxQtyPerSite", "Orders", []string{"loc"}, aggregate.Max, "qty")
	orders, _ := w.Relation("Orders")
	for _, v := range []*aggregate.View{sum, cnt, maxV} {
		if err := v.Initialize(orders); err != nil {
			t.Fatal(err)
		}
		m.AddConsumer(v)
	}

	cur := st.Clone()
	for round := 0; round < 12; round++ {
		u := b.RandomOrderUpdate(cur, 4, 3, int64(round*7+1))
		refresh(t, m, w, u)
		if err := u.Apply(cur); err != nil {
			t.Fatal(err)
		}
		post, _ := w.Relation("Orders")
		for _, v := range []*aggregate.View{sum, cnt, maxV} {
			want, err := aggregate.Recompute(v, post)
			if err != nil {
				t.Fatal(err)
			}
			if got := v.Result(); !got.Equal(want) {
				t.Fatalf("round %d: %s drifted:\ngot  %v\nwant %v", round, v.Name, got, want)
			}
		}
	}
}
