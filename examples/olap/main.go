// Olap layers Section 5's analytical workload on top of the independent
// star warehouse: union-integrated fact tables maintained through
// complements below, incrementally maintained aggregate summary tables
// (count/sum/min/max per group) above — "the fact tables can be maintained
// as described above using PSJ views, whereas view maintenance algorithms
// for aggregate queries can be used to maintain materialized aggregate
// queries".
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	dwc "dwcomplement"
)

func main() {
	sites := []string{"paris", "tokyo", "austin"}
	b, err := dwc.NewBusiness(sites, false)
	if err != nil {
		log.Fatal(err)
	}
	st, err := b.Populate(40, 300, 2026)
	if err != nil {
		log.Fatal(err)
	}
	w, err := b.BuildWarehouse(st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("star warehouse stores %s\n\n", strings.Join(w.Names(), ", "))

	// Summary tables over the unioned fact table, fed by the maintainer.
	ctx := context.Background()
	m := dwc.NewMaintainer(w.Complement())
	qtyPerSite := dwc.NewAggregate("QtyPerSite", "Orders", []string{"loc"}, dwc.AggSum, "qty")
	ordersPerSite := dwc.NewAggregate("OrdersPerSite", "Orders", []string{"loc"}, dwc.AggCount, "qty")
	biggest := dwc.NewAggregate("BiggestOrder", "Orders", []string{"loc"}, dwc.AggMax, "qty")
	orders, _ := w.Relation("Orders")
	for _, v := range []*dwc.AggregateView{qtyPerSite, ordersPerSite, biggest} {
		if err := v.Initialize(orders); err != nil {
			log.Fatal(err)
		}
		m.AddConsumer(v)
	}

	fmt.Println("== Summary tables (initial) ==")
	fmt.Println(qtyPerSite.Result())
	fmt.Println(ordersPerSite.Result())
	fmt.Println(biggest.Result())

	// A stream of order activity at the sites; every refresh maintains the
	// fact table through the complement machinery and the aggregates
	// through the delta feed — sources untouched.
	fmt.Println("== Applying 25 order batches ==")
	cur := st.Clone()
	for round := 0; round < 25; round++ {
		u := b.RandomOrderUpdate(cur, 6, 3, int64(round))
		if _, err := dwc.Refresh(ctx, m, w, u); err != nil {
			log.Fatal(err)
		}
		if err := u.Apply(cur); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("== Summary tables (after the stream) ==")
	fmt.Println(qtyPerSite.Result())

	// Cross-check one group against an ad-hoc warehouse query.
	q := dwc.MustParseExpr("pi{okey, qty}(sigma{loc = 'paris'}(Order_paris))")
	ans, err := dwc.Answer(ctx, w, q)
	if err != nil {
		log.Fatal(err)
	}
	var manual int64
	for t := range ans.All() {
		manual += ans.Relation().Get(t, "qty").AsInt()
	}
	fmt.Printf("ad-hoc Σqty(paris) via translated query: %d\n", manual)
	agg := qtyPerSite.Result()
	for t := range agg.All() {
		if agg.Get(t, "loc").AsString() == "paris" {
			fmt.Printf("summary-table Σqty(paris):               %d\n", agg.Get(t, "sum").AsInt())
		}
	}
}
