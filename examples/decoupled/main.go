// Decoupled runs the full Figure 1 architecture live: two sealed,
// autonomous source databases apply concurrent transaction streams and
// report their changes; the integrator maintains the warehouse from the
// reports and the warehouse's own state alone. At the end the program
// proves the point of the paper: the warehouse is exactly consistent with
// the sources, and the number of ad-hoc source queries issued is zero.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"

	dwc "dwcomplement"
)

func main() {
	db := dwc.NewDatabase()
	db.MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string"))
	db.MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))

	views := dwc.MustNewViewSet(db,
		dwc.NewView("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp"))
	comp, err := dwc.ComputeComplement(db, views, dwc.Proposition22())
	if err != nil {
		log.Fatal(err)
	}

	// Two sealed sources partition D, exactly as in Figure 1.
	env, err := dwc.NewEnvironment(comp, map[string][]string{
		"sales-db":   {"Sale"},
		"company-db": {"Emp"},
	})
	if err != nil {
		log.Fatal(err)
	}
	sales, _ := env.Source("sales-db")
	company, _ := env.Source("company-db")

	items := []string{"TV set", "VCR", "PC", "Computer", "Radio", "Camera"}
	clerks := []string{"Mary", "John", "Paula", "Zoe", "Max", "Ann", "Bob"}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the Sales database's transaction stream
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			u := dwc.NewUpdate()
			item := dwc.Str(items[rng.Intn(len(items))])
			clerk := dwc.Str(clerks[rng.Intn(len(clerks))])
			if rng.Intn(4) == 0 {
				u.MustDelete("Sale", db, item, clerk)
			} else {
				u.MustInsert("Sale", db, item, clerk)
			}
			if _, err := sales.Apply(u); err != nil {
				log.Fatal(err)
			}
		}
	}()
	go func() { // the Company database's transaction stream
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 200; i++ {
			u := dwc.NewUpdate()
			clerk := dwc.Str(clerks[rng.Intn(len(clerks))])
			age := dwc.Int(int64(20 + rng.Intn(40)))
			if rng.Intn(4) == 0 {
				u.MustDelete("Emp", db, clerk, age)
			} else {
				u.MustInsert("Emp", db, clerk, age)
			}
			// Key violations are legitimate local rejections; ignore them.
			_, _ = company.Apply(u)
		}
	}()
	wg.Wait()

	refreshes, changes := env.Integrator.Stats()
	fmt.Printf("integrator applied %d refreshes covering %d source tuple changes\n",
		refreshes, changes)
	fmt.Printf("ad-hoc source queries issued: %d (sealed sources would have refused)\n\n",
		env.TotalQueryAttempts())

	// Verify: the warehouse equals a fresh materialization of the combined
	// source state — with zero drift after 400 concurrent transactions.
	combined, err := env.CombinedState()
	if err != nil {
		log.Fatal(err)
	}
	want, err := comp.MaterializeWarehouseCtx(nil, combined)
	if err != nil {
		log.Fatal(err)
	}
	w := env.Integrator.Warehouse()
	ok := true
	for _, name := range w.Names() {
		got, _ := w.Relation(name)
		if !got.Equal(want[name]) {
			ok = false
			fmt.Printf("DIVERGED: %s\n", name)
		}
	}
	fmt.Printf("warehouse consistent with sources: %v\n", ok)
	for _, name := range w.Names() {
		r, _ := w.Relation(name)
		fmt.Printf("  %-7s %4d tuple(s)\n", name, r.Len())
	}

	// The warehouse still answers source queries by itself.
	q := dwc.MustParseExpr("pi{clerk}(Emp) minus pi{clerk}(Sale)")
	rows, err := dwc.Answer(context.Background(), w, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nemployees who sold nothing (answered warehouse-only):\n%s", rows.Relation())
}
