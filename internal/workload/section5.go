package workload

import (
	"fmt"
	"math/rand"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
)

// Section5Spec is the two-site business schema of the paper's Section 5
// as benchmark/gen.go generates it: FactParis has a provably empty
// complement, TokyoFR leaves a stored C_Order_tokyo, so a tokyo query
// reconstructs its base relation through a real union.
const Section5Spec = `
relation Customer(ckey int, cname string, nation string) key(ckey)
relation Part(pkey int, pname string, brand string) key(pkey)
relation Site(loc string, region string) key(loc)
relation Order_paris(okey int, ckey int, pkey int, loc string, qty int) key(okey)
relation Order_tokyo(okey int, ckey int, pkey int, loc string, qty int) key(okey)
fk Order_paris(ckey) -> Customer
fk Order_tokyo(ckey) -> Customer
fk Order_paris(pkey) -> Part
fk Order_tokyo(pkey) -> Part
fk Order_paris(loc) -> Site
fk Order_tokyo(loc) -> Site
domain Order_paris: loc = 'paris'
domain Order_tokyo: loc = 'tokyo'
view DimCustomer = Customer
view DimPart = Part
view DimSite = Site
view FactParis = pi{okey, ckey, pkey, loc, qty}(Order_paris)
view TokyoFR = pi{okey, ckey, pkey, loc, qty, nation}(sigma{nation = 'France'}(Order_tokyo join Customer))
`

// FillSection5 populates a state of Section5Spec with rows source rows,
// the same ones on every call: rows/2 orders per site, rows/20 customers
// and parts.
func FillSection5(st *catalog.State, rows int) {
	rng := rand.New(rand.NewSource(1))
	dims := rows / 20
	nations := []string{"France", "Japan", "Germany", "Brazil"}
	for i := 1; i <= dims; i++ {
		st.MustInsert("Customer", relation.Int(int64(i)), relation.String_(fmt.Sprintf("cust-%05d", i)), relation.String_(nations[rng.Intn(len(nations))]))
		st.MustInsert("Part", relation.Int(int64(i)), relation.String_(fmt.Sprintf("part-%05d", i)), relation.String_(fmt.Sprintf("brand-%03d", (i-1)/20)))
	}
	for _, loc := range []string{"paris", "tokyo"} {
		st.MustInsert("Site", relation.String_(loc), relation.String_("region-"+loc))
		for k := 1; k <= rows/2; k++ {
			st.MustInsert("Order_"+loc, relation.Int(int64(k)), relation.Int(int64(1+rng.Intn(dims))),
				relation.Int(int64(1+rng.Intn(dims))), relation.String_(loc), relation.Int(int64(1+rng.Intn(50))))
		}
	}
}
