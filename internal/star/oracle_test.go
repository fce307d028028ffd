package star

import (
	"fmt"
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/warehouse"
)

// TestStarPaperOracles checks the star layout — fact parts folded into one
// stored union, W⁻¹ written with origin selections on it — against the
// paper's oracles on seeded Business states, full and slim: W⁻¹(W(d)) = d
// (Prop. 2.1), Q̂(W(d)) = Q(d) (Thm. 3.1), incremental = recompute = W(d′)
// over an update stream (Thm. 4.1), and Section 5's specification.
func TestStarPaperOracles(t *testing.T) {
	for _, slim := range []bool{false, true} {
		t.Run(fmt.Sprintf("slim=%v", slim), func(t *testing.T) {
			b, err := NewBusiness([]string{"paris", "tokyo"}, slim)
			if err != nil {
				t.Fatal(err)
			}
			var states []algebra.State
			var first *catalog.State
			for seed := int64(1); seed <= 24; seed++ {
				// 4–8 customers and parts, 0–8 orders per site.
				st, err := b.Populate(4+int(seed%5), int(seed%9), seed)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = st
				}
				states = append(states, st)
			}
			w, err := b.BuildWarehouse(first)
			if err != nil {
				t.Fatal(err)
			}
			comp := w.Complement()
			res := comp.Resolver()
			for base, inv := range comp.InverseMap() {
				for name := range algebra.Bases(inv) {
					if _, ok := res[name]; !ok {
						t.Errorf("W⁻¹(%s) reads %q, not a stored target: %s", base, name, inv)
					}
				}
			}

			// Prop. 2.1.
			if err := comp.CheckReconstruction(states); err != nil {
				t.Error(err)
			}

			// Thm. 3.1: a per-site query, a cross-site join, a base itself.
			orders := func(site string) algebra.Expr { return algebra.NewBase(OrderRelation(site)) }
			queries := []algebra.Expr{
				algebra.NewProject(algebra.NewJoin(
					algebra.NewSelect(orders("paris"), algebra.AttrCmpConst("qty", algebra.OpGe, relation.Int(20))),
					algebra.NewBase("Customer")), "cname"),
				algebra.NewProject(algebra.NewJoin(
					algebra.NewProject(orders("paris"), "ckey"),
					algebra.NewProject(orders("tokyo"), "ckey"),
					algebra.NewBase("Customer")), "cname", "nation"),
				orders("paris"),
			}
			for _, q := range queries {
				qHat, err := w.TranslateQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				for name := range algebra.Bases(qHat) {
					if name != "Orders" && !strings.HasPrefix(name, "Dim") && !strings.HasPrefix(name, "C_") {
						t.Errorf("Q̂ of %s reads %q: %s", q, name, qHat)
					}
				}
			}
			if err := w.CheckQueryIndependence(queries, states); err != nil {
				t.Error(err)
			}

			// Thm. 4.1 over an update stream from the largest state.
			cur := states[7].(*catalog.State).Clone()
			inc := warehouse.New(comp)
			rec := warehouse.New(comp)
			for _, x := range []*warehouse.Warehouse{inc, rec} {
				if err := x.Initialize(cur); err != nil {
					t.Fatal(err)
				}
			}
			m := maintain.NewMaintainer(comp)
			for round := int64(0); round < 12; round++ {
				u := b.RandomOrderUpdate(cur, 3, 2, round)
				refresh(t, m, inc, u)
				if err := m.RefreshByRecompute(rec, u); err != nil {
					t.Fatal(err)
				}
				if err := u.Apply(cur); err != nil {
					t.Fatal(err)
				}
				want, err := comp.MaterializeWarehouseCtx(nil, cur)
				if err != nil {
					t.Fatal(err)
				}
				sameWarehouse(t, fmt.Sprintf("round %d incremental", round), inc.State(), want)
				sameWarehouse(t, fmt.Sprintf("round %d recompute", round), rec.State(), want)
			}

			// Section 5's specification covers the folded fact table.
			spec, err := maintain.Specify(comp)
			if err != nil {
				t.Fatal(err)
			}
			for _, site := range b.Sites {
				for _, class := range []string{"ins:", "del:"} {
					if _, ok := spec.Programs["Orders"][class+OrderRelation(site)]; !ok {
						t.Errorf("no %s%s program for Orders", class, OrderRelation(site))
					}
				}
			}
		})
	}
}
