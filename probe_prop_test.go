package dwc_test

// Metamorphic property tests for probe-driven evaluation: whatever access
// path EvalCtx picks from the cardinalities it meets — constant probes
// under σ, sideways information passing between join inputs, index
// probes or scans at stored leaves — its answer must equal that of
// a naive reference evaluator that knows none of it, and (Theorem 3.1)
// the answer to a translated query over the warehouse must equal the
// source query over the sources. The reference evaluates every input in
// full, left to right, with the nested-loop joins of join_prop_test.go.

import (
	"math"
	"math/rand"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

// refEval is the reference evaluator. It exists only in this test: the
// production engine has no switch that turns the probes off.
func refEval(t *testing.T, e algebra.Expr, st algebra.State) *relation.Relation {
	t.Helper()
	switch n := e.(type) {
	case *algebra.Base:
		r, ok := st.Relation(n.Name)
		if !ok {
			t.Fatalf("reference: no relation %q", n.Name)
		}
		return r
	case *algebra.Empty:
		return relation.New(n.Attrs...)
	case *algebra.Select:
		return relation.Select(refEval(t, n.Input, st), func(row relation.Row) bool { return algebra.EvalCond(n.Cond, row) })
	case *algebra.Project:
		return relation.Project(refEval(t, n.Input, st), n.Attrs...)
	case *algebra.Join:
		acc := refEval(t, n.Inputs[0], st)
		for _, in := range n.Inputs[1:] {
			acc = naiveNaturalJoin(acc, refEval(t, in, st))
		}
		return acc
	case *algebra.Union:
		out := refEval(t, n.L, st).Clone()
		out.InsertAll(refEval(t, n.R, st))
		return out
	case *algebra.Diff:
		l, r := refEval(t, n.L, st), refEval(t, n.R, st)
		out := relation.New(l.Attrs()...)
		for tu := range l.All() {
			if !r.ContainsAligned(tu, l) {
				out.Insert(tu)
			}
		}
		return out
	case *algebra.Rename:
		out, err := relation.Rename(refEval(t, n.Input, st), n.Mapping)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		return out
	default:
		t.Fatalf("reference: unknown node %T", e)
		return nil
	}
}

// exprGen draws random valid expressions over a fixed set of base
// schemata.
type exprGen struct {
	rng   *rand.Rand
	bases map[string][]string
	names []string
}

var attrPool = []string{"a", "b", "c", "d", "e"}

func (g *exprGen) cond(attrs []string, depth int) algebra.Cond {
	attr := func() string { return attrs[g.rng.Intn(len(attrs))] }
	if depth > 0 && g.rng.Intn(3) == 0 {
		l, r := g.cond(attrs, depth-1), g.cond(attrs, depth-1)
		switch g.rng.Intn(3) {
		case 0:
			return &algebra.And{L: l, R: r}
		case 1:
			return &algebra.Or{L: l, R: r}
		default:
			return &algebra.Not{C: l}
		}
	}
	ops := []algebra.CmpOp{algebra.OpEq, algebra.OpNe, algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe}
	switch g.rng.Intn(8) {
	case 0:
		return algebra.AttrCmpAttr(attr(), ops[g.rng.Intn(len(ops))], attr())
	case 1: // constant on the left
		return &algebra.Cmp{Left: algebra.ConstOperand(randomValue(g.rng, 30)), Op: algebra.OpEq, Right: algebra.AttrOperand(attr())}
	case 2:
		return algebra.AttrCmpConst(attr(), ops[g.rng.Intn(len(ops))], randomValue(g.rng, 30))
	default: // the probed shape: attr = const of any kind, NULL and floats included
		return algebra.AttrEqConst(attr(), randomValue(g.rng, 30))
	}
}

func (g *exprGen) gen(depth int) (algebra.Expr, []string) {
	if depth == 0 {
		name := g.names[g.rng.Intn(len(g.names))]
		return algebra.NewBase(name), g.bases[name]
	}
	switch g.rng.Intn(7) {
	case 0, 1:
		in, attrs := g.gen(depth - 1)
		c := g.cond(attrs, 2)
		if g.rng.Intn(2) == 0 { // conjunctions are what the constant probe reads
			c = &algebra.And{L: c, R: g.cond(attrs, 0)}
		}
		return algebra.NewSelect(in, c), attrs
	case 2:
		in, attrs := g.gen(depth - 1)
		var keep []string
		for _, a := range attrs {
			if g.rng.Intn(3) > 0 {
				keep = append(keep, a)
			}
		}
		if len(keep) == 0 {
			keep = []string{attrs[0]}
		}
		return algebra.NewProject(in, keep...), keep
	case 3, 4:
		n := 2 + g.rng.Intn(2) // two- and three-way joins
		var ins []algebra.Expr
		set := relation.NewAttrSet()
		for i := 0; i < n; i++ {
			in, attrs := g.gen(depth - 1)
			ins = append(ins, in)
			set = set.Union(relation.NewAttrSet(attrs...))
		}
		return algebra.NewJoin(ins...), set.Sorted()
	case 5:
		l, attrs := g.gen(depth - 1)
		r := g.sameAttrs(l, attrs, depth-1)
		if g.rng.Intn(2) == 0 {
			return algebra.NewUnion(l, r), attrs
		}
		return algebra.NewDiff(l, r), attrs
	default:
		in, attrs := g.gen(depth - 1)
		from := attrs[g.rng.Intn(len(attrs))]
		have := relation.NewAttrSet(attrs...)
		for _, to := range attrPool {
			if !have.Has(to) {
				out := append([]string(nil), attrs...)
				for i, a := range out {
					if a == from {
						out[i] = to
					}
				}
				return algebra.NewRename(in, map[string]string{from: to}), out
			}
		}
		return in, attrs
	}
}

// sameAttrs returns an expression over exactly attrs: a projection of a
// fresh draw when one covers them, else a selection of l itself.
func (g *exprGen) sameAttrs(l algebra.Expr, attrs []string, depth int) algebra.Expr {
	want := relation.NewAttrSet(attrs...)
	for try := 0; try < 6; try++ {
		e, have := g.gen(depth)
		if want.SubsetOf(relation.NewAttrSet(have...)) {
			return algebra.NewProject(e, attrs...)
		}
	}
	return algebra.NewSelect(l, g.cond(attrs, 1))
}

func randomProbeState(rng *rand.Rand) (algebra.MapState, *exprGen) {
	bases := map[string][]string{"R": {"a", "b"}, "S": {"b", "c"}, "T": {"c", "d"}, "U": {"b", "a"}}
	st := algebra.MapState{}
	g := &exprGen{rng: rng, bases: bases}
	for _, name := range []string{"R", "S", "T", "U"} {
		g.names = append(g.names, name)
		// 60 rows over a pool of 30 strings plus a handful of numbers:
		// enough distinct keys that probes skip most of a leaf.
		st[name] = randomRelation(rng, bases[name], 60, 30)
		// NaN in a numeric column is where a probe (Value.Equal) and a σ
		// (Value.Compare) on `attr = 3` would part ways if Compare called
		// NaN equal to every number.
		st[name].InsertValues(relation.Float(math.NaN()), randomValue(rng, 30))
	}
	return st, g
}

// TestProbeDrivenEvalMatchesReference: EvalCtx = reference on random
// expressions with σ (NULL, int, float, string and bool constants on
// either side, attr = attr, and/or/not), π, ρ, ∪, ∖ and 2- and 3-way joins
// over states with NULLs and mixed-kind columns.
func TestProbeDrivenEvalMatchesReference(t *testing.T) {
	var probed, read int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, g := randomProbeState(rng)
		for i := 0; i < 20; i++ {
			e, _ := g.gen(1 + rng.Intn(3))
			want := refEval(t, e, st)
			ec := algebra.NewEvalContext(nil)
			got, err := algebra.EvalCtx(ec, e, st)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, e, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d: %s\nprobe-driven: %d tuples, reference: %d tuples\n%s",
					seed, e, got.Len(), want.Len(), algebra.RenderPlan(ec.Stats().Plan, false))
			}
			if ec.Stats().Probed > 0 {
				probed++
			} else {
				read++
			}
		}
	}
	if probed == 0 || read == 0 {
		t.Errorf("evaluations with index probes: %d, without: %d; the generator must reach both", probed, read)
	}
}

// TestRestrictedContract: for any expression and any probe, EvalRestricted
// agrees with the full value on every tuple matching the probe and never
// hands out a stored relation — with probes drawn from the answer, from
// thin air, empty, 40 rows wide, and over attributes the expression does
// not have.
func TestRestrictedContract(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, g := randomProbeState(rng)
		for i := 0; i < 20; i++ {
			e, attrs := g.gen(rng.Intn(3))
			full := refEval(t, e, st)
			var pattrs []string
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					pattrs = append(pattrs, a)
				}
			}
			if len(pattrs) == 0 {
				pattrs = []string{attrs[0]}
			}
			foreign := rng.Intn(8) == 0
			if foreign {
				pattrs = append(pattrs, "zz")
			}
			probe := relation.New(pattrs...)
			rows := relation.Project(full, pattrs...).SortedTuples()
			for n := []int{0, 1, 3, 40}[rng.Intn(4)]; n > 0; n-- {
				if len(rows) > 0 && rng.Intn(3) > 0 {
					probe.Insert(rows[rng.Intn(len(rows))])
				} else {
					tu := make(relation.Tuple, len(pattrs))
					for j := range tu {
						tu[j] = randomValue(rng, 30)
					}
					probe.Insert(tu)
				}
			}
			got, err := algebra.EvalRestricted(nil, e, st, probe)
			if err != nil {
				t.Fatalf("seed %d: %s ⋉ %v: %v", seed, e, pattrs, err)
			}
			for name, r := range st {
				if got == r {
					t.Fatalf("seed %d: %s ⋉ %v returned the stored relation %s", seed, e, pattrs, name)
				}
			}
			if foreign {
				if !got.Equal(full) {
					t.Fatalf("seed %d: %s under a foreign probe %v: %d tuples, full value has %d", seed, e, pattrs, got.Len(), full.Len())
				}
				continue
			}
			if g, w := naiveSemiJoin(got, probe), naiveSemiJoin(full, probe); !g.Equal(w) {
				t.Fatalf("seed %d: %s ⋉ probe%v (%d rows): %d matching tuples, full value has %d",
					seed, e, pattrs, probe.Len(), g.Len(), w.Len())
			}
		}
	}
}

// TestTheorem31ProbeDriven: on random schemata, PSJ view sets and states,
// Q̂ evaluated probe-driven over the warehouse = Q̂ by the reference = Q
// over the sources, for random PSJ queries whose selections mix int and
// float constants.
func TestTheorem31ProbeDriven(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		sc := workload.RandomScenario(seed, 2+int(seed%4), 1+int(seed%3))
		comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
		if err != nil {
			t.Fatal(err)
		}
		d := workload.NewGen(sc.DB, seed+2000).State(40)
		w := warehouse.New(comp)
		if err := w.Initialize(d); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		names := sc.DB.Names()
		for i := 0; i < 12; i++ {
			// A PSJ query over 1–3 base relations (disconnected picks join
			// as Cartesian products, which are legal queries too).
			var ins []algebra.Expr
			attrs := relation.NewAttrSet()
			for _, p := range rng.Perm(len(names))[:1+rng.Intn(min(3, len(names)))] {
				ins = append(ins, algebra.NewBase(names[p]))
				sch, _ := sc.DB.Schema(names[p])
				attrs = attrs.Union(sch.AttrSet())
			}
			all := attrs.Sorted()
			var q algebra.Expr = algebra.NewJoin(ins...)
			k := int64(rng.Intn(16))
			consts := []relation.Value{relation.Int(k), relation.Float(float64(k)), relation.Float(float64(k) + 0.5), relation.Null()}
			c := algebra.AttrEqConst(all[rng.Intn(len(all))], consts[rng.Intn(len(consts))])
			if rng.Intn(2) == 0 {
				q = algebra.NewSelect(q, c)
			} else {
				q = algebra.NewSelect(q, &algebra.And{L: c, R: algebra.AttrCmpConst(all[rng.Intn(len(all))], algebra.OpGe, relation.Int(int64(rng.Intn(8))))})
			}
			q = algebra.NewProject(q, all[:1+rng.Intn(len(all))]...)

			want := refEval(t, q, d)
			qHat, err := w.TranslateQuery(q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			got, err := algebra.EvalCtx(nil, qHat, w)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, qHat, err)
			}
			atSource, err := algebra.EvalCtx(nil, q, d)
			if err != nil {
				t.Fatal(err)
			}
			for label, r := range map[string]*relation.Relation{
				"Q̂ probe-driven over W(d)": got,
				"Q̂ by the reference":       refEval(t, qHat, w),
				"Q probe-driven over d":     atSource,
			} {
				if !r.Equal(want) {
					t.Fatalf("seed %d: %s: %d tuples, Q(d) has %d\nQ:  %s\nQ̂:  %s", seed, label, r.Len(), want.Len(), q, qHat)
				}
			}
		}
	}
}
