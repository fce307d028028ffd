package star

import (
	"fmt"
	"math/rand"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
	"dwcomplement/internal/warehouse"
)

// Business models the Section 5 scenario: "a business warehouse where
// parts from different suppliers are sold to customers according to their
// orders (similar to the one modeled in the TPC-D decision support
// benchmark). This business could be distributed over several locations,
// each running its own operational database."
//
// The schema:
//
//	Customer(ckey int key, cname string, nation string)   — dimension
//	Part(pkey int key, pname string, brand string)        — dimension
//	Site(loc string key, region string)                   — dimension
//	Order_<loc>(okey int key, ckey, pkey int, loc string, qty int)
//	    per site, with foreign keys ckey→Customer, pkey→Part, loc→Site
//
// The fact table Orders integrates every site's order relation by union;
// the loc foreign key is the origin attribute.
type Business struct {
	DB    *catalog.Database
	Sites []string
	Dims  []*view.PSJ
	Fact  *FactSpec
}

// OrderRelation returns the per-site order relation's name.
func OrderRelation(site string) string { return "Order_" + site }

// NewBusiness builds the multi-site schema and warehouse definition. When
// slim is true, the fact table drops the qty measure, which makes the
// per-site complements non-empty (the warehouse can no longer cover the
// order relations) — the contrast experiment E11/E14 measures.
func NewBusiness(sites []string, slim bool) (*Business, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("star: business needs at least one site")
	}
	db := catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("Customer", "ckey:int", "cname:string", "nation:string").WithKey("ckey")).
		MustAddSchema(relation.NewSchema("Part", "pkey:int", "pname:string", "brand:string").WithKey("pkey")).
		MustAddSchema(relation.NewSchema("Site", "loc:string", "region:string").WithKey("loc"))
	for _, s := range sites {
		name := OrderRelation(s)
		db.MustAddSchema(relation.NewSchema(name,
			"okey:int", "ckey:int", "pkey:int", "loc:string", "qty:int").WithKey("okey"))
		if err := db.AddForeignKey(name, []string{"ckey"}, "Customer"); err != nil {
			return nil, err
		}
		if err := db.AddForeignKey(name, []string{"pkey"}, "Part"); err != nil {
			return nil, err
		}
		if err := db.AddForeignKey(name, []string{"loc"}, "Site"); err != nil {
			return nil, err
		}
		// Each site's operational database only holds its own orders: a
		// domain constraint pinning loc to the site. This is what makes
		// origin determination exact and the per-site complements provably
		// empty for the full fact table.
		if err := db.AddDomain(name, algebra.AttrEqConst("loc", relation.String_(s))); err != nil {
			return nil, err
		}
	}

	dims := []*view.PSJ{
		view.NewPSJ("DimCustomer", []string{"ckey", "cname", "nation"}, nil, "Customer"),
		view.NewPSJ("DimPart", []string{"pkey", "pname", "brand"}, nil, "Part"),
		view.NewPSJ("DimSite", []string{"loc", "region"}, nil, "Site"),
	}
	proj := []string{"okey", "ckey", "pkey", "loc", "qty"}
	if slim {
		proj = []string{"okey", "ckey", "pkey", "loc"}
	}
	fact := &FactSpec{Name: "Orders", OriginAttr: "loc"}
	for _, s := range sites {
		fact.Parts = append(fact.Parts, FactPart{
			Origin: relation.String_(s),
			View:   view.NewPSJ("ignored", proj, nil, OrderRelation(s)),
		})
	}
	return &Business{DB: db, Sites: sites, Dims: dims, Fact: fact}, nil
}

// Populate fills a state with scale-factor-sized data: sf customers and
// parts, and ordersPerSite orders per site referencing them. Deterministic
// per seed.
func (b *Business) Populate(sf, ordersPerSite int, seed int64) (*catalog.State, error) {
	rng := rand.New(rand.NewSource(seed))
	st := b.DB.NewState()
	nations := []string{"France", "Germany", "Japan", "Brazil"}
	brands := []string{"Acme", "Globex", "Initech"}
	regions := []string{"EMEA", "APAC", "AMER"}
	for i := 0; i < sf; i++ {
		st.MustInsert("Customer",
			relation.Int(int64(i)),
			relation.String_(fmt.Sprintf("customer-%d", i)),
			relation.String_(nations[rng.Intn(len(nations))]))
		st.MustInsert("Part",
			relation.Int(int64(i)),
			relation.String_(fmt.Sprintf("part-%d", i)),
			relation.String_(brands[rng.Intn(len(brands))]))
	}
	for _, s := range b.Sites {
		st.MustInsert("Site", relation.String_(s), relation.String_(regions[rng.Intn(len(regions))]))
	}
	for _, s := range b.Sites {
		for i := 0; i < ordersPerSite; i++ {
			st.MustInsert(OrderRelation(s),
				relation.Int(int64(i)),
				relation.Int(int64(rng.Intn(sf))),
				relation.Int(int64(rng.Intn(sf))),
				relation.String_(s),
				relation.Int(int64(1+rng.Intn(50))))
		}
	}
	if err := st.Check(); err != nil {
		return nil, fmt.Errorf("star: populated state inconsistent: %w", err)
	}
	return st, nil
}

// RandomOrderUpdate builds an update inserting and deleting orders at a
// random site, keeping foreign keys valid against the state.
func (b *Business) RandomOrderUpdate(st *catalog.State, nIns, nDel int, seed int64) *catalog.Update {
	rng := rand.New(rand.NewSource(seed))
	u := catalog.NewUpdate()
	site := b.Sites[rng.Intn(len(b.Sites))]
	rel := OrderRelation(site)
	orders := st.MustRelation(rel)
	customers := st.MustRelation("Customer").Len()
	parts := st.MustRelation("Part").Len()
	if customers == 0 || parts == 0 {
		return u
	}

	existing := relation.Project(orders, "okey")
	nextKey := int64(0)
	for t := range existing.All() {
		if t[0].AsInt() >= nextKey {
			nextKey = t[0].AsInt() + 1
		}
	}
	for i := 0; i < nIns; i++ {
		u.MustInsert(rel, b.DB,
			relation.Int(nextKey),
			relation.Int(int64(rng.Intn(customers))),
			relation.Int(int64(rng.Intn(parts))),
			relation.String_(site),
			relation.Int(int64(1+rng.Intn(50))))
		nextKey++
	}
	tuples := orders.SortedTuples()
	for i := 0; i < nDel && len(tuples) > 0; i++ {
		pick := tuples[rng.Intn(len(tuples))]
		u.MustDelete(rel, b.DB, pick...)
	}
	return u.Normalize(st)
}

// BuildWarehouse computes the complement (Theorem 2.2 options: the foreign
// keys do the heavy lifting) and materializes the star warehouse.
func (b *Business) BuildWarehouse(st *catalog.State) (*warehouse.Warehouse, error) {
	return Build(b.DB, b.Dims, []*FactSpec{b.Fact}, core.Theorem22(), st)
}
