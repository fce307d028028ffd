package main

import (
	"context"
	"fmt"

	"dwcomplement/internal/aggregate"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/star"
)

// e15 — Section 5's closing paragraph: aggregate (OLAP) views are
// maintained downstream of the complement-maintained fact tables.
func e15() experiment {
	return experiment{
		id:    "E15",
		title: "aggregate summary tables over complement-maintained fact tables",
		paper: "Section 5 (OLAP paragraph; extension beyond the paper's formal scope)",
		run: func(c *config) error {
			sf, orders := 60, 250
			rounds := 15
			if c.quick {
				sf, orders, rounds = 15, 40, 5
			}
			b, err := star.NewBusiness([]string{"paris", "tokyo", "austin"}, false)
			if err != nil {
				return err
			}
			st, err := b.Populate(sf, orders, c.seed)
			if err != nil {
				return err
			}
			w, err := b.BuildWarehouse(st)
			if err != nil {
				return err
			}
			views := []*aggregate.View{
				aggregate.New("QtyPerSite", "Orders", []string{"loc"}, aggregate.Sum, "qty"),
				aggregate.New("OrdersPerSite", "Orders", []string{"loc"}, aggregate.Count, "qty"),
				aggregate.New("MaxQtyPerSite", "Orders", []string{"loc"}, aggregate.Max, "qty"),
				aggregate.New("QtyPerCustomer", "Orders", []string{"ckey"}, aggregate.Sum, "qty"),
			}
			m := maintain.NewMaintainer(w.Complement())
			facts, _ := w.Relation("Orders")
			for _, v := range views {
				if err := v.Initialize(facts); err != nil {
					return err
				}
				m.AddConsumer(v)
			}

			cur := st.Clone()
			drift := 0
			for round := 0; round < rounds; round++ {
				u := b.RandomOrderUpdate(cur, 5, 3, c.seed+int64(round))
				if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
					return err
				}
				if err := u.Apply(cur); err != nil {
					return err
				}
				post, _ := w.Relation("Orders")
				for _, v := range views {
					want, err := aggregate.Recompute(v, post)
					if err != nil {
						return err
					}
					if !v.Result().Equal(want) {
						drift++
					}
				}
			}
			var rows [][]string
			for _, v := range views {
				rows = append(rows, []string{v.String(), fmt.Sprint(v.Groups())})
			}
			c.table([]string{"aggregate view", "groups"}, rows)
			c.printf("  %d refresh rounds × %d aggregates: %d drifted (0 expected)\n", rounds, len(views), drift)
			c.printf("  (the aggregates are maintained from fact-table deltas only —\n")
			c.printf("   the paper's layering: PSJ complements below, summary tables above)\n")
			if drift > 0 {
				return fmt.Errorf("aggregate drift detected")
			}
			return nil
		},
	}
}
