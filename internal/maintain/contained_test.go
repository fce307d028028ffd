package maintain

import (
	"math/rand"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/parse"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// containedSchema is a schema the property test draws differences over:
// the base relations that may stand left of a difference, and a condition
// per attribute for the selections.
type containedSchema struct {
	name  string
	db    *catalog.Database
	st    *catalog.State
	left  []string
	conds map[string]algebra.Cond
}

func containedSchemata(t *testing.T) []containedSchema {
	fig := workload.Figure1(false)
	spec, err := parse.SpecText(workload.Section5Spec)
	if err != nil {
		t.Fatal(err)
	}
	workload.FillSection5(spec.State, 200)
	return []containedSchema{{
		name: "figure 1",
		db:   fig.DB,
		st:   workload.NewGen(fig.DB, 11).State(10),
		left: []string{"Sale", "Emp"},
		conds: map[string]algebra.Cond{
			"age":   algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(7)),
			"clerk": algebra.AttrCmpConst("clerk", algebra.OpLt, relation.String_("v09")),
			"item":  algebra.AttrCmpConst("item", algebra.OpGe, relation.String_("v04")),
		},
	}, {
		name: "Section 5",
		db:   spec.DB,
		st:   spec.State,
		left: []string{"Order_tokyo", "Order_paris", "Customer"},
		conds: map[string]algebra.Cond{
			"nation": algebra.AttrEqConst("nation", relation.String_("France")),
			"qty":    algebra.AttrCmpConst("qty", algebra.OpGt, relation.Int(20)),
			"loc":    algebra.AttrEqConst("loc", relation.String_("tokyo")),
			"brand":  algebra.AttrCmpConst("brand", algebra.OpLt, relation.String_("brand-001")),
			"ckey":   algebra.AttrCmpConst("ckey", algebra.OpLe, relation.Int(6)),
		},
	}}
}

// exprGen draws the right side of L ∖ π_{attr L}(E).
type exprGen struct {
	rng    *rand.Rand
	sc     containedSchema
	left   string
	lAttrs relation.AttrSet
	// general makes the draw put one ∖ or ρ on E's path down to L, or a ρ
	// beside it: the difference then falls to the read-based rule.
	general bool
}

func (g *exprGen) attrs(name string) relation.AttrSet {
	a, _ := g.sc.db.BaseAttrs(name)
	return a
}

// expr draws E over attribute set attrs with π_{attr L}(E) ⊆ L, depth
// operators deep: σ, a join with a relation sharing an attribute, π keeping
// attr L, or a union of two such expressions projected onto attr L.
func (g *exprGen) expr(depth int) (algebra.Expr, relation.AttrSet) {
	if depth == 0 {
		return algebra.NewBase(g.left), g.lAttrs
	}
	in, attrs := g.expr(depth - 1)
	switch g.rng.Intn(4) {
	case 0:
		for _, a := range attrs.Sorted() {
			if c, ok := g.sc.conds[a]; ok && g.rng.Intn(2) == 0 {
				return algebra.NewSelect(in, c), attrs
			}
		}
		return in, attrs
	case 1:
		var partners []string
		for _, name := range g.sc.db.Names() {
			if !g.attrs(name).Intersect(attrs).IsEmpty() {
				partners = append(partners, name)
			}
		}
		p := partners[g.rng.Intn(len(partners))]
		return algebra.NewJoin(in, algebra.NewBase(p)), attrs.Union(g.attrs(p))
	case 2:
		keep := g.lAttrs.Clone()
		for _, a := range attrs.Sorted() {
			if g.rng.Intn(2) == 0 {
				keep[a] = struct{}{}
			}
		}
		return algebra.NewProjectSet(in, keep), keep
	default:
		other, _ := g.expr(depth - 1)
		return algebra.NewUnion(algebra.NewProjectSet(in, g.lAttrs), algebra.NewProjectSet(other, g.lAttrs)), g.lAttrs
	}
}

// nest wraps E in a ∖ or ρ that the delta-only rule must not admit: a
// difference on the path to L — whose deletions include what its right
// side gains, outside the old value — or a renaming on the path or beside
// it.
func (g *exprGen) nest(in algebra.Expr, attrs relation.AttrSet) (algebra.Expr, relation.AttrSet) {
	switch g.rng.Intn(3) {
	case 0:
		// Right: another relation over attr L when the schema has one (the
		// other site's orders), else an expression contained in L.
		var right algebra.Expr
		for _, name := range g.sc.left {
			if name != g.left && g.attrs(name).Equal(g.lAttrs) {
				right = algebra.NewBase(name)
				if g.rng.Intn(2) == 0 {
					right = algebra.NewProjectSet(algebra.NewSelect(algebra.NewJoin(right, algebra.NewBase("Customer")), g.sc.conds["nation"]), g.lAttrs)
				}
			}
		}
		if right == nil {
			right, _ = g.expr(2)
			right = algebra.NewProjectSet(right, g.lAttrs)
		}
		return algebra.NewDiff(algebra.NewProjectSet(in, g.lAttrs), right), g.lAttrs
	case 1:
		// Rename an attribute outside attr L, or a fresh one in and back.
		for _, a := range attrs.Minus(g.lAttrs).Sorted() {
			return algebra.NewRename(in, map[string]string{a: a + "_r"}), attrs.Minus(relation.NewAttrSet(a)).Union(relation.NewAttrSet(a + "_r"))
		}
		a := g.lAttrs.Sorted()[0]
		back := algebra.NewRename(algebra.NewRename(in, map[string]string{a: a + "_r"}), map[string]string{a + "_r": a})
		return back, attrs
	default:
		// A renamed relation joined beside the path.
		for _, name := range g.sc.db.Names() {
			shared := g.attrs(name).Intersect(attrs)
			if name == g.left || shared.IsEmpty() {
				continue
			}
			keep := shared.Sorted()[0]
			m := map[string]string{}
			for _, a := range g.attrs(name).Sorted() {
				if a != keep {
					m[a] = a + "_r"
				}
			}
			if len(m) == 0 {
				continue
			}
			renamed := algebra.NewRename(algebra.NewBase(name), m)
			out := attrs.Clone()
			for _, a := range m {
				out[a] = struct{}{}
			}
			return algebra.NewJoin(in, renamed), out
		}
		return g.nest(in, attrs)
	}
}

// draw returns L ∖ π_{attr L}(E).
func (g *exprGen) draw() *algebra.Diff {
	e, attrs := g.expr(1 + g.rng.Intn(3))
	if g.general {
		e, attrs = g.nest(e, attrs)
		if g.rng.Intn(2) == 0 {
			if c, ok := g.sc.conds[attrs.Sorted()[g.rng.Intn(attrs.Len())]]; ok {
				e = algebra.NewSelect(e, c)
			}
		}
	}
	return algebra.NewDiff(algebra.NewBase(g.left), algebra.NewProjectSet(e, g.lAttrs))
}

// randomUpdate draws an update over the state: per relation, inserts of
// fresh tuples (values copied from other rows, so joins match), deletes of
// present ones, the Section-5 dimension changes — a customer's nation
// flipped to or from 'France', a customer deleted — and an insert plus
// delete of one tuple, present or fresh.
func randomUpdate(rng *rand.Rand, db *catalog.Database, st *catalog.State) *catalog.Update {
	u := catalog.NewUpdate()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	for _, name := range db.Names() {
		r, _ := st.Relation(name)
		rows := r.SortedTuples()
		if len(rows) == 0 {
			continue
		}
		pick := func() relation.Tuple { return rows[rng.Intn(len(rows))] }
		// A fresh tuple: each column from a random row, the first bumped
		// when it is an int so keys stay fresh most of the time.
		fresh := func() relation.Tuple {
			t := make(relation.Tuple, r.Arity())
			for i := range t {
				t[i] = pick()[i]
			}
			if t[0].Kind() == relation.KindInt && rng.Intn(4) > 0 {
				t[0] = relation.Int(1000 + rng.Int63n(1000))
			}
			return t
		}
		for i := rng.Intn(3); i > 0; i-- {
			must(u.Insert(name, db, fresh()))
		}
		for i := rng.Intn(3); i > 0; i-- {
			must(u.Delete(name, db, pick()))
		}
		if rng.Intn(4) == 0 {
			t := pick()
			if rng.Intn(2) == 0 {
				t = fresh()
			}
			must(u.Insert(name, db, t))
			must(u.Delete(name, db, t))
		}
		if pos, ok := r.Pos("nation"); ok && rng.Intn(2) == 0 {
			old := pick()
			flipped := append(relation.Tuple(nil), old...)
			if old[pos].AsString() == "France" {
				flipped[pos] = relation.String_("Japan")
			} else {
				flipped[pos] = relation.String_("France")
			}
			must(u.Delete(name, db, old))
			must(u.Insert(name, db, flipped))
		}
	}
	return u
}

// TestContainedDifferenceRule: for random L ∖ π_{attr L}(E) over the
// figure-1 and Section-5 schemata, E drawn from σ, ⋈, ∪ and π keeping
// attr L, and random normalized updates, the delta applied to the old value
// is the post-state value (checkDelta); markContained admits exactly the
// differences drawn without a ∖ or ρ in E; and where it admits one, the
// delta-only insert set and the read-based one give the same exact delta.
func TestContainedDifferenceRule(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, sc := range containedSchemata(t) {
		admitted, general := 0, 0
		for i := 0; i < 120; i++ {
			left := sc.left[rng.Intn(len(sc.left))]
			g := &exprGen{rng: rng, sc: sc, left: left, general: i%4 == 3}
			g.lAttrs = g.attrs(left)
			e := g.draw()
			if _, err := algebra.Attrs(e, sc.db); err != nil {
				t.Fatalf("%s: drew an invalid expression %s: %v", sc.name, e, err)
			}
			for k := 0; k < 3; k++ {
				u := randomUpdate(rng, sc.db, sc.st)
				checkDelta(t, e, sc.st, u)

				nu := u.Normalize(sc.st)
				p := newPropagation(sc.st, nu, make(map[*algebra.Diff]bool))
				markContained(e, p, p.contained)
				if p.contained[e] == g.general {
					t.Fatalf("%s: markContained(%s) = %v", sc.name, e, p.contained[e])
				}
				if _, err := p.propagate(e); err != nil {
					t.Fatal(err)
				}
				if !p.contained[e] {
					general++
					continue
				}
				admitted++
				l, r := p.memo[e.L], p.memo[e.R]
				del, err := relation.Union(l.d.Del, r.d.Ins)
				if err != nil {
					t.Fatal(err)
				}
				readIns, err := p.diffIns(l, r)
				if err != nil {
					t.Fatal(err)
				}
				old := mustEval(t, e, sc.st)
				a := Delta{Ins: containedDiffIns(l.d, r.d), Del: del}.Exact(old)
				b := Delta{Ins: readIns, Del: del}.Exact(old)
				if !a.Ins.Equal(b.Ins) || !a.Del.Equal(b.Del) {
					t.Errorf("%s: %s under\n%s\ndelta-only %v / %v\nread-based %v / %v",
						sc.name, e, nu, a.Ins, a.Del, b.Ins, b.Del)
				}
			}
		}
		t.Logf("%s: %d admitted, %d general", sc.name, admitted, general)
	}
}

// mustEval evaluates an expression the test has already validated.
func mustEval(t testing.TB, e algebra.Expr, st algebra.State) *relation.Relation {
	t.Helper()
	r, err := algebra.EvalCtx(nil, e, st)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
