package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
)

// Gen generates constraint-respecting random states and update streams for
// a database. All generation is deterministic per seed.
type Gen struct {
	db  *catalog.Database
	rng *rand.Rand
	// Domain is the number of distinct values per attribute; small domains
	// make joins and constraint interactions dense. Default 16.
	Domain int
}

// NewGen returns a generator for the database with the given seed.
func NewGen(db *catalog.Database, seed int64) *Gen {
	return &Gen{db: db, rng: rand.New(rand.NewSource(seed)), Domain: 16}
}

// value draws a random value of the attribute's declared kind.
func (g *Gen) value(k relation.Kind) relation.Value {
	n := g.rng.Intn(g.Domain)
	switch k {
	case relation.KindString:
		return relation.String_(fmt.Sprintf("v%02d", n))
	case relation.KindFloat:
		return relation.Float(float64(n) / 2)
	case relation.KindBool:
		return relation.Bool(n%2 == 0)
	default: // KindInt and untyped
		return relation.Int(int64(n))
	}
}

// genOrder returns the base relations with IND targets before sources, so
// source tuples can be drawn from already-populated target projections.
func (g *Gen) genOrder() []string {
	topo, err := g.db.Constraints().TopoOrder() // sources first
	if err != nil {
		// Cyclic INDs are rejected at declaration time; a cycle here is a
		// programming error.
		panic(err)
	}
	pos := make(map[string]int, len(topo))
	for i, n := range topo {
		pos[n] = i
	}
	names := g.db.Names()
	out := append([]string(nil), names...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, iok := pos[out[i]]
		pj, jok := pos[out[j]]
		switch {
		case iok && jok:
			return pi > pj // reverse topological: targets first
		case jok:
			return false
		case iok:
			return true
		default:
			return false
		}
	})
	return out
}

// State generates a random consistent state with roughly size tuples per
// relation (fewer when keys or INDs constrain the space). The result
// always satisfies all declared constraints.
func (g *Gen) State(size int) *catalog.State {
	st := g.db.NewState()
	for _, name := range g.genOrder() {
		sc, _ := g.db.Schema(name)
		for i := 0; i < size; i++ {
			t := g.tupleFor(st, sc)
			if t == nil {
				continue
			}
			if g.insertRespectingKey(st, sc, t) {
				continue
			}
		}
	}
	if err := st.Check(); err != nil {
		panic("workload: generator produced inconsistent state: " + err.Error())
	}
	return st
}

// tupleFor draws a tuple for schema sc that satisfies all INDs whose
// source is sc, pinning IND attributes to values found in the target
// relations. It returns nil when some target projection is empty (no
// consistent tuple exists).
func (g *Gen) tupleFor(st *catalog.State, sc *relation.Schema) relation.Tuple {
	t := make(relation.Tuple, len(sc.Attrs))
	for i, a := range sc.Attrs {
		t[i] = g.value(a.Type)
	}
	for _, d := range g.db.Constraints().INDs() {
		if d.From != sc.Name {
			continue
		}
		target := st.MustRelation(d.To)
		proj := relation.Project(target, d.X.Sorted()...)
		if proj.IsEmpty() {
			return nil
		}
		pick := proj.SortedTuples()[g.rng.Intn(proj.Len())]
		for xi, attr := range d.X.Sorted() {
			for i, a := range sc.Attrs {
				if a.Name == attr {
					t[i] = pick[xi]
				}
			}
		}
	}
	// Domain constraints of the attr=const form pin their attribute after
	// IND pinning (domains are the stronger requirement; the re-check
	// below rejects tuples the two pins leave inconsistent).
	for _, dom := range g.db.Constraints().Domains(sc.Name) {
		for _, c := range algebra.Conjuncts(dom.Cond) {
			cmp, ok := c.(*algebra.Cmp)
			if !ok || cmp.Op != algebra.OpEq || !cmp.Left.IsAttr || cmp.Right.IsAttr {
				continue
			}
			for i, a := range sc.Attrs {
				if a.Name == cmp.Left.Attr {
					t[i] = cmp.Right.Val
				}
			}
		}
	}
	// Overlapping INDs from the same source may fight over shared
	// attributes; re-verify and drop the tuple instead of emitting an
	// inconsistent one.
	for _, d := range g.db.Constraints().INDs() {
		if d.From != sc.Name {
			continue
		}
		target := st.MustRelation(d.To)
		proj := relation.Project(target, d.X.Sorted()...)
		probe := make(relation.Tuple, 0, d.X.Len())
		for _, attr := range d.X.Sorted() {
			for i, a := range sc.Attrs {
				if a.Name == attr {
					probe = append(probe, t[i])
				}
			}
		}
		if !proj.Contains(probe) {
			return nil
		}
	}
	// Final domain verification (non-equality conjuncts included).
	if len(g.db.Constraints().Domains(sc.Name)) > 0 {
		probe := relation.NewFromSchema(sc)
		probe.Insert(t)
		for _, dom := range g.db.Constraints().Domains(sc.Name) {
			if algebra.SelectCond(probe, dom.Cond, nil).IsEmpty() {
				return nil
			}
		}
	}
	return t
}

// insertRespectingKey inserts t into st unless it would violate sc's key;
// it reports whether the tuple was inserted.
func (g *Gen) insertRespectingKey(st *catalog.State, sc *relation.Schema, t relation.Tuple) bool {
	r := st.MustRelation(sc.Name)
	if sc.HasKey() {
		keyAttrs := sc.KeySet().Sorted()
		probe := make(relation.Tuple, len(keyAttrs))
		for i, a := range keyAttrs {
			p, _ := r.Pos(a)
			probe[i] = t[p]
		}
		if relation.Project(r, keyAttrs...).Contains(probe) {
			return false
		}
	}
	if _, err := st.Insert(sc.Name, t); err != nil {
		panic("workload: " + err.Error())
	}
	return true
}

// States generates n random consistent states of the given size, always
// prepending the empty state (the ordering and verification corpora want
// it: several of the paper's arguments hinge on the empty state).
func (g *Gen) States(n, size int) []*catalog.State {
	out := []*catalog.State{g.db.NewState()}
	for i := 0; i < n; i++ {
		out = append(out, g.State(size))
	}
	return out
}

// Update generates a random update against the state with roughly nIns
// insertions and nDel deletions overall, cascading deletions along INDs so
// the updated state stays consistent. The returned update is normalized
// against st.
func (g *Gen) Update(st *catalog.State, nIns, nDel int) *catalog.Update {
	u := catalog.NewUpdate()
	work := st.Clone()
	names := g.genOrder()

	// Deletions: pick random existing tuples; cascade to IND sources.
	for i := 0; i < nDel; i++ {
		name := names[g.rng.Intn(len(names))]
		r := work.MustRelation(name)
		if r.IsEmpty() {
			continue
		}
		t := r.SortedTuples()[g.rng.Intn(r.Len())]
		g.cascadeDelete(work, u, name, t)
	}

	// Insertions: targets first so sources can reference new tuples.
	for i := 0; i < nIns; i++ {
		name := names[g.rng.Intn(len(names))]
		sc, _ := g.db.Schema(name)
		t := g.tupleFor(work, sc)
		if t == nil {
			continue
		}
		if g.insertRespectingKey(work, sc, t) {
			if err := u.Insert(name, g.db, t); err != nil {
				panic("workload: " + err.Error())
			}
		}
	}
	return u.Normalize(st)
}

// cascadeDelete removes the tuple and, recursively, all IND-source tuples
// that referenced it, recording every removal in u.
func (g *Gen) cascadeDelete(work *catalog.State, u *catalog.Update, name string, t relation.Tuple) {
	r := work.MustRelation(name)
	if !r.Contains(t) {
		return
	}
	r.Delete(t)
	if err := u.Delete(name, g.db, t); err != nil {
		panic("workload: " + err.Error())
	}
	for _, d := range g.db.Constraints().INDs() {
		if d.To != name {
			continue
		}
		// Source tuples whose X projection matched the deleted tuple must
		// go too, unless another target tuple still covers them.
		target := work.MustRelation(d.To)
		targetProj := relation.Project(target, d.X.Sorted()...)
		src := work.MustRelation(d.From)
		var victims []relation.Tuple
		for s := range src.All() {
			probe := make(relation.Tuple, 0, d.X.Len())
			for _, a := range d.X.Sorted() {
				p, _ := src.Pos(a)
				probe = append(probe, s[p])
			}
			if !targetProj.Contains(probe) {
				victims = append(victims, s.Clone())
			}
		}
		for _, v := range victims {
			g.cascadeDelete(work, u, d.From, v)
		}
	}
}
