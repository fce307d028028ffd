// Starschema reproduces Section 5's business warehouse: a TPC-D-like
// multi-site company whose per-site order relations are integrated by
// union into one fact table, with dimension tables for customers, parts
// and sites. Foreign keys and per-site domain constraints let the
// complement machinery prove every complement empty — the warehouse is
// query- and update-independent with zero extra storage — while a "slim"
// fact table that drops the qty measure forces real complements. The star
// warehouse is an ordinary dwc.Warehouse: the fact table is one stored
// relation, and W⁻¹ reads each site's orders from it by origin selection.
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

	fmt.Println("== Full fact table (all order attributes) ==")
	full, err := dwc.NewBusiness(sites, false)
	if err != nil {
		log.Fatal(err)
	}
	st, err := full.Populate(50, 200, 42)
	if err != nil {
		log.Fatal(err)
	}
	w, err := full.BuildWarehouse(st)
	if err != nil {
		log.Fatal(err)
	}
	describe(w)
	fmt.Printf("stored complement tuples: %d (every complement proved empty)\n\n", storedTuples(w))

	// Origin determination: the paris slice of the fact table IS the paris
	// order relation, and W⁻¹ reads it exactly that way.
	ctx := context.Background()
	inv, _ := w.Complement().Entry("Order_paris")
	fmt.Printf("origin determination: W⁻¹ reads Order_paris as %s\n", inv.Inverse)
	part, err := dwc.Answer(ctx, w, dwc.MustParseExpr("Order_paris"))
	if err != nil {
		log.Fatal(err)
	}
	orig, _ := st.Relation("Order_paris")
	fmt.Printf("  fact slice: %d tuples, source relation: %d tuples, equal: %v\n\n",
		part.Len(), orig.Len(), part.Relation().Equal(orig))

	// A cross-site analytical query answered from the warehouse.
	q := dwc.MustParseExpr(
		"pi{cname, pname}(sigma{qty >= 40}(Order_paris) join Customer join Part)")
	qHat, err := w.TranslateQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("source query:    ", q)
	fmt.Println("warehouse query: ", qHat)
	ans, err := dwc.Answer(ctx, w, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("→ %d tuple(s)\n\n", ans.Len())

	// Warehouse-only maintenance of the fact table.
	u := full.RandomOrderUpdate(st, 5, 3, 7)
	if _, err := dwc.Refresh(ctx, dwc.NewMaintainer(w.Complement()), w, u); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied a random order update (%d changes) without source access\n", u.Size())
	orders, _ := w.Relation("Orders")
	fmt.Printf("fact table now holds %d order(s)\n\n", orders.Len())

	fmt.Println("== Slim fact table (qty dropped) ==")
	slim, err := dwc.NewBusiness(sites, true)
	if err != nil {
		log.Fatal(err)
	}
	st2, err := slim.Populate(50, 200, 42)
	if err != nil {
		log.Fatal(err)
	}
	w2, err := slim.BuildWarehouse(st2)
	if err != nil {
		log.Fatal(err)
	}
	describe(w2)
	fmt.Printf("stored complement tuples: %d\n", storedTuples(w2))
	fmt.Println("dropping the measure from the fact table forces the warehouse to")
	fmt.Println("store per-site complements — the storage cost of projection.")
}

// describe prints what the warehouse stores.
func describe(w *dwc.Warehouse) {
	fmt.Printf("star warehouse stores %s; %d stored complement(s)\n",
		strings.Join(w.Names(), ", "), len(w.Complement().StoredEntries()))
}

func storedTuples(w *dwc.Warehouse) int {
	n := 0
	for _, e := range w.Complement().StoredEntries() {
		if r, ok := w.Relation(e.Name); ok {
			n += r.Len()
		}
	}
	return n
}
