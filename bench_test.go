// Benchmarks, one per experiment of the reproduction (see DESIGN.md §4 and
// EXPERIMENTS.md). Each benchmark measures the hot operation of its
// experiment; the correctness side of every experiment lives in the test
// suites and in cmd/dwbench, which also prints the paper-vs-measured
// tables.
package dwc_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	dwc "dwcomplement"
	"dwcomplement/internal/aggregate"
	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/star"
	"dwcomplement/internal/view"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

func mustWarehouse(b *testing.B, sc workload.Scenario, opts core.Options, st *catalog.State) (*warehouse.Warehouse, *core.Complement) {
	b.Helper()
	comp, err := core.Compute(sc.DB, sc.Views, opts)
	if err != nil {
		b.Fatal(err)
	}
	w := warehouse.New(comp)
	if err := w.Initialize(st); err != nil {
		b.Fatal(err)
	}
	return w, comp
}

// BenchmarkE1Figure1Maintenance measures the paper's driving update: one
// tuple inserted into Sale, maintained warehouse-only (Figure 1, Ex 1.1).
func BenchmarkE1Figure1Maintenance(b *testing.B) {
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	w, comp := mustWarehouse(b, sc, core.Proposition22(), st)
	snapshot := w.CloneState()
	m := maintain.NewMaintainer(comp)
	u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
		relation.String_("Computer"), relation.String_("Paula"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.LoadState(cloneMapState(snapshot))
		if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2QueryTranslation measures the rewriting Q ↦ Q̂ (Ex 1.2).
func BenchmarkE2QueryTranslation(b *testing.B) {
	sc := workload.Figure1(false)
	w, _ := mustWarehouse(b, sc, core.Proposition22(), workload.Figure1State(sc.DB))
	q := algebra.NewUnion(
		algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
		algebra.NewProject(algebra.NewBase("Emp"), "clerk"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.TranslateQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3InjectivityCheck measures one W(d) materialization plus
// fingerprinting — the unit of the Proposition 2.1 experiment.
func BenchmarkE3InjectivityCheck(b *testing.B) {
	sc := workload.Figure1(true)
	comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
	if err != nil {
		b.Fatal(err)
	}
	st := workload.NewGen(sc.DB, 1).State(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := comp.MaterializeWarehouseCtx(nil, st)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range ws {
			_ = r.Fingerprint()
		}
	}
}

// BenchmarkE4ComplementRST measures complement computation for Example
// 2.1's R ⋈ S ⋈ T warehouse, with and without V2 = S.
func BenchmarkE4ComplementRST(b *testing.B) {
	for _, withV2 := range []bool{false, true} {
		sc := workload.Example21(withV2)
		b.Run(fmt.Sprintf("withV2=%v", withV2), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(sc.DB, sc.Views, core.Proposition22()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5NonMinimalPSJ measures evaluating Prop 2.2's C_R against the
// paper's smaller C'_R on the Example 2.2 schema.
func BenchmarkE5NonMinimalPSJ(b *testing.B) {
	sc := workload.Example22()
	comp, err := core.Compute(sc.DB, sc.Views, core.Proposition22())
	if err != nil {
		b.Fatal(err)
	}
	eR, _ := comp.Entry("R")
	v1 := algebra.NewProject(algebra.NewBase("R"), "A", "B")
	v2 := algebra.NewProject(algebra.NewBase("R"), "B", "C")
	v3 := algebra.NewProject(algebra.NewSelect(algebra.NewBase("R"),
		algebra.AttrEqConst("B", relation.Int(0))), "A", "B", "C")
	cPrime := algebra.NewDiff(
		algebra.NewJoin(algebra.NewBase("R"),
			algebra.NewProject(algebra.NewDiff(algebra.NewJoin(v1, v2), algebra.NewBase("R")), "A", "B")),
		v3)
	st := workload.NewGen(sc.DB, 2).State(60)
	for name, def := range map[string]algebra.Expr{"Prop22": eR.Def, "PaperCPrime": cPrime} {
		def := def
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.EvalCtx(nil, def, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6ConstraintComplement measures Theorem 2.2 computation —
// covers, pseudo-views, emptiness analysis — on Example 2.3.
func BenchmarkE6ConstraintComplement(b *testing.B) {
	sc := workload.Example23(workload.E23AllKeysAndINDs, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compute(sc.DB, sc.Views, core.Theorem22()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7RefIntegrityEmpty measures the emptiness-detecting complement
// computation of Example 2.4.
func BenchmarkE7RefIntegrityEmpty(b *testing.B) {
	sc := workload.Figure1(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
		if err != nil {
			b.Fatal(err)
		}
		if len(comp.StoredEntries()) != 1 {
			b.Fatal("emptiness proof lost")
		}
	}
}

// BenchmarkE8QueryIndependence measures answering a translated query at
// the warehouse vs evaluating the original at the source (Theorem 3.1).
func BenchmarkE8QueryIndependence(b *testing.B) {
	sc := workload.Figure1(true)
	st := workload.NewGen(sc.DB, 3).State(200)
	w, _ := mustWarehouse(b, sc, core.Theorem22(), st)
	q := algebra.NewProject(
		algebra.NewSelect(
			algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
			algebra.AttrCmpConst("age", algebra.OpLt, relation.Int(40))),
		"item", "clerk")
	qHat, err := w.TranslateQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("AtSource", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.EvalCtx(nil, q, st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AtWarehouse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.EvalCtx(nil, qHat, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9UpdateIndependence measures a full incremental refresh round
// under a mixed random update (Theorem 4.1).
func BenchmarkE9UpdateIndependence(b *testing.B) {
	sc := workload.Figure1(false)
	gen := workload.NewGen(sc.DB, 4)
	st := gen.State(100)
	w, comp := mustWarehouse(b, sc, core.Proposition22(), st)
	snapshot := w.CloneState()
	u := gen.Update(st, 5, 3)
	m := maintain.NewMaintainer(comp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.LoadState(cloneMapState(snapshot))
		if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10SigmaViewUpdates measures the complement-free σ-view
// translator (Section 4, closing observation).
func BenchmarkE10SigmaViewUpdates(b *testing.B) {
	db := catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	vs := view.MustNewSet(db, view.NewPSJ("Old", []string{"clerk", "age"},
		algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(30)), "Emp"))
	m, err := maintain.NewSigmaMaintainer(db, vs)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGen(db, 5)
	st := gen.State(100)
	w, err := m.Materialize(st)
	if err != nil {
		b.Fatal(err)
	}
	u := gen.Update(st, 5, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Refresh(w, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11StarSchema measures one warehouse-only refresh of the
// union-integrated fact table (Section 5).
func BenchmarkE11StarSchema(b *testing.B) {
	for _, slim := range []bool{false, true} {
		b.Run(fmt.Sprintf("slim=%v", slim), func(b *testing.B) {
			biz, err := star.NewBusiness([]string{"paris", "tokyo", "austin"}, slim)
			if err != nil {
				b.Fatal(err)
			}
			st, err := biz.Populate(100, 500, 6)
			if err != nil {
				b.Fatal(err)
			}
			w, err := biz.BuildWarehouse(st)
			if err != nil {
				b.Fatal(err)
			}
			m := maintain.NewMaintainer(w.Complement())
			cur := st.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u := biz.RandomOrderUpdate(cur, 5, 3, int64(i))
				b.StartTimer()
				if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := u.Apply(cur); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE12IncrementalVsRecompute is the crossover sweep: refresh cost
// by route, base size and update size.
func BenchmarkE12IncrementalVsRecompute(b *testing.B) {
	sc := workload.Figure1(true)
	comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
	if err != nil {
		b.Fatal(err)
	}
	for _, baseSize := range []int{100, 400} {
		gen := workload.NewGen(sc.DB, 8)
		gen.Domain = baseSize
		st := gen.State(baseSize)
		w := warehouse.New(comp)
		if err := w.Initialize(st); err != nil {
			b.Fatal(err)
		}
		snapshot := w.CloneState()
		for _, deltaSize := range []int{1, 20} {
			u := gen.Update(st, deltaSize, deltaSize/2)
			m := maintain.NewMaintainer(comp)
			b.Run(fmt.Sprintf("Incremental/base=%d/delta=%d", baseSize, u.Size()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.LoadState(cloneMapState(snapshot))
					if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("Recompute/base=%d/delta=%d", baseSize, u.Size()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.LoadState(cloneMapState(snapshot))
					if err := m.RefreshByRecompute(w, u); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE13ComplementScaling measures Compute over growing chain
// schemata (cover enumeration is the combinatorial part).
func BenchmarkE13ComplementScaling(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		db, views := workload.ChainSchema(n)
		b.Run(fmt.Sprintf("relations=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(db, views, core.Theorem22()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14ComplementSizeSweep measures the stored-size evaluation that
// powers the storage-fraction experiment.
func BenchmarkE14ComplementSizeSweep(b *testing.B) {
	sc := workload.Example23(workload.E23AllKeysAndINDs, true)
	st := workload.NewGen(sc.DB, 9).State(100)
	for _, opts := range []struct {
		name string
		o    core.Options
	}{
		{"Prop22", core.Proposition22()},
		{"Thm22", core.Theorem22()},
	} {
		comp, err := core.Compute(sc.DB, sc.Views, opts.o)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(opts.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := comp.StoredSize(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE15Aggregates measures maintaining four summary tables from one
// fact-table refresh (the Section 5 OLAP layer).
func BenchmarkE15Aggregates(b *testing.B) {
	biz, err := star.NewBusiness([]string{"paris", "tokyo", "austin"}, false)
	if err != nil {
		b.Fatal(err)
	}
	st, err := biz.Populate(100, 400, 12)
	if err != nil {
		b.Fatal(err)
	}
	w, err := biz.BuildWarehouse(st)
	if err != nil {
		b.Fatal(err)
	}
	views := []*aggregate.View{
		aggregate.New("QtyPerSite", "Orders", []string{"loc"}, aggregate.Sum, "qty"),
		aggregate.New("OrdersPerSite", "Orders", []string{"loc"}, aggregate.Count, "qty"),
		aggregate.New("MaxQtyPerSite", "Orders", []string{"loc"}, aggregate.Max, "qty"),
		aggregate.New("QtyPerCustomer", "Orders", []string{"ckey"}, aggregate.Sum, "qty"),
	}
	m := maintain.NewMaintainer(w.Complement())
	orders, _ := w.Relation("Orders")
	for _, v := range views {
		if err := v.Initialize(orders); err != nil {
			b.Fatal(err)
		}
		m.AddConsumer(v)
	}
	cur := st.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := biz.RandomOrderUpdate(cur, 4, 2, int64(i))
		if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := u.Apply(cur); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkJoin measures the engine's hot join path on the 10k-tuple
// workload: repeated joins of a small probe side against a large,
// unchanging build side — the access pattern of query serving, where
// translated queries join small selected slices against big materialized
// warehouse relations. The sub-benchmarks cover the natural join, the
// semi-join (the restriction primitive of incremental maintenance) and a
// bulk 10k ⋈ 10k join.
func BenchmarkJoin(b *testing.B) {
	big := relation.New("b", "c")
	for i := 0; i < 10000; i++ {
		big.InsertValues(relation.Int(int64(i)), relation.Int(int64(i%97)))
	}
	small := relation.New("a", "b")
	for i := 0; i < 16; i++ {
		small.InsertValues(relation.Int(int64(i)), relation.Int(int64(i*613)))
	}
	probe := relation.New("b")
	for i := 0; i < 16; i++ {
		probe.InsertValues(relation.Int(int64(i * 613)))
	}
	other := relation.New("b", "d")
	for i := 0; i < 10000; i++ {
		other.InsertValues(relation.Int(int64(i)), relation.Int(int64(i%89)))
	}
	b.Run("NaturalJoinProbe10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := relation.NaturalJoin(small, big); out.Len() != 16 {
				b.Fatalf("join size %d", out.Len())
			}
		}
	})
	b.Run("SemiJoinProbe10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := relation.SemiJoin(big, probe); out.Len() != 16 {
				b.Fatalf("semijoin size %d", out.Len())
			}
		}
	})
	b.Run("NaturalJoinBulk10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := relation.NaturalJoin(big, other); out.Len() != 10000 {
				b.Fatalf("join size %d", out.Len())
			}
		}
	})
}

// BenchmarkDeleteCarriedIndex measures what a cached index costs the
// write path: one Delete plus re-Insert on a 50k-row relation carrying no
// index, a unique-key index, a foreign-key index with 20-row chains, and
// an index over a constant column, whose one 50 000-row chain the first
// delete refuses to walk (the index is dropped, so the rest pay nothing).
func BenchmarkDeleteCarriedIndex(b *testing.B) {
	const rows = 50_000
	for _, c := range []struct {
		name, attr string
		carried    int
	}{{"none", "", 0}, {"unique", "k", 1}, {"chain20", "fk", 1}, {"chain50k", "loc", 0}} {
		b.Run(c.name, func(b *testing.B) {
			r := relation.New("k", "fk", "loc")
			ts := make([]relation.Tuple, rows)
			for i := range ts {
				ts[i] = relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % (rows / 20))), relation.String_("paris")}
				r.Insert(ts[i])
			}
			if c.attr != "" {
				r.Index(c.attr)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if t := ts[i*7919%rows]; !r.Delete(t) || !r.Insert(t) {
					b.Fatal("delete + insert of a present row failed")
				}
			}
			if r.IndexCount() != c.carried {
				b.Fatalf("%d indexes after the deletes, want %d", r.IndexCount(), c.carried)
			}
		})
	}
}

// BenchmarkRefresh measures one incremental warehouse refresh on the
// 10k-tuple join workload: Figure 1's schema scaled to 10k tuples per
// base relation, with small mixed updates applied cumulatively (the state
// evolves across iterations, as in a live deployment).
func BenchmarkRefresh(b *testing.B) {
	sc := workload.Figure1(false)
	gen := workload.NewGen(sc.DB, 11)
	gen.Domain = 10000
	st := gen.State(10000)
	w, comp := mustWarehouse(b, sc, core.Proposition22(), st)
	m := maintain.NewMaintainer(comp)
	cur := st.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := gen.Update(cur, 2, 1)
		b.StartTimer()
		if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := u.Apply(cur); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func cloneMapState(ms algebra.MapState) algebra.MapState {
	out := make(algebra.MapState, len(ms))
	for name, r := range ms {
		out[name] = r.Clone()
	}
	return out
}

// section5Warehouse materializes the Section-5 warehouse over rows
// source rows (workload.FillSection5).
func section5Warehouse(tb testing.TB, rows int) *dwc.Warehouse {
	tb.Helper()
	spec, err := dwc.ParseSpec(workload.Section5Spec)
	if err != nil {
		tb.Fatal(err)
	}
	workload.FillSection5(spec.State, rows)
	w, err := dwc.BuildWarehouse(spec.DB, spec.Views, dwc.Theorem22(), spec.State)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkQueryClasses measures the four query shapes of the process
// benchmark's pool (benchmark/gen.go) on a 100k-row Section-5 star
// schema, warm: translation and evaluation of a point lookup, a scan, a
// fact ⋈ dimension lookup and the two-site union, per site where the
// translation differs (paris is a rename, tokyo a union with C_Order_tokyo).
// eqall is not in the pool: an equality constant every row satisfies, the
// adverse shape of a constant probe — it fetches the whole relation through
// one hash chain where a columnar scan would do.
func BenchmarkQueryClasses(b *testing.B) {
	w := section5Warehouse(b, 100_000)
	for _, c := range []struct{ name, q string }{
		{"point/paris", "sigma{okey = 4711}(Order_paris)"},
		{"point/tokyo", "sigma{okey = 4711}(Order_tokyo)"},
		{"scan/paris", "sigma{qty > 49}(Order_paris)"},
		{"scan/tokyo", "sigma{qty > 49}(Order_tokyo)"},
		{"join/paris", "sigma{ckey = 17}(Order_paris join Customer)"},
		{"join/tokyo", "sigma{ckey = 17}(Order_tokyo join Customer)"},
		{"union", "sigma{brand = 'brand-007'}((Order_paris union Order_tokyo) join Part)"},
		{"eqall/paris", "sigma{loc = 'paris'}(Order_paris)"},
	} {
		q := dwc.MustParseExpr(c.q)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N+1; i++ { // iteration 0 warms the index caches
				if i == 1 {
					b.ResetTimer()
				}
				rows, err := dwc.Answer(context.Background(), w, q)
				if err != nil {
					b.Fatal(err)
				}
				if rows.Len() == 0 {
					b.Fatalf("%s: empty answer", c.q)
				}
			}
		})
	}
}

// churnOrder is the order row the refresh benchmarks insert under okey and
// later delete again: customer and part from the dimensions' upper halves,
// as benchmark/gen.go draws its churn rows.
func churnOrder(loc string, okey, dims int) []relation.Value {
	h := uint64(okey)*0x9e3779b97f4a7c15 + uint64(len(loc))
	half := dims / 2
	return []relation.Value{dwc.Int(int64(okey)), dwc.Int(int64(half + 1 + int(h%uint64(dims-half)))),
		dwc.Int(int64(half + 1 + int((h>>20)%uint64(dims-half)))), dwc.Str(loc), dwc.Int(int64(1 + (h>>44)%49))}
}

// churnUpdate is update i of the process benchmark's churn over rows source
// rows: insert one order — sites alternating — and, once lag updates of
// that site went before, delete the one inserted lag updates earlier.
func churnUpdate(db *dwc.Database, rows, lag, i int) *dwc.Update {
	loc, j := []string{"paris", "tokyo"}[i%2], rows/2+1+i/2
	u := dwc.NewUpdate().MustInsert("Order_"+loc, db, churnOrder(loc, j, rows/20)...)
	if i/2 >= lag {
		u.MustDelete("Order_"+loc, db, churnOrder(loc, j-lag, rows/20)...)
	}
	return u
}

// BenchmarkRefreshScale measures one refresh of the process benchmark's
// churn shape — an update inserts one order and deletes the one inserted
// 64 updates earlier, sites alternating — on the Section-5 schema at three
// sizes, with the indexes the query pool builds already cached on the
// views. Thm. 4.1's cost model says the three sizes should cost the same:
// ns/op, B/op and copied-B/op (RefreshStats.CopiedBytes, the pages the
// copy-on-write apply copied) are the gate for "refresh is O(delta), not
// O(view)". ops/op (the operator records of RefreshStats.Eval) and reads/op
// (old and new values read, under a probe or in full) count what the
// refresh evaluated: the targets the update does not reach and the
// complements the deltas alone maintain add none. The updates are built
// outside the timer, so B/op and allocs/op are the refresh's alone.
func BenchmarkRefreshScale(b *testing.B) {
	const lag = 64
	for _, c := range []struct {
		name string
		rows int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run(c.name, func(b *testing.B) {
			w := section5Warehouse(b, c.rows)
			ctx := context.Background()
			warmRefreshIndexes(b, w)
			db, m := w.Complement().Database(), dwc.NewMaintainer(w.Complement())
			copied, ops, reads := int64(0), 0, int64(0)
			us := make([]*dwc.Update, 2*lag)
			for i := 0; i < b.N+2*lag; i++ { // the first 2·lag updates only insert
				if i%len(us) == 0 { // the updates are built with the timer stopped, a batch at a time
					b.StopTimer()
					for k := range us {
						us[k] = churnUpdate(db, c.rows, lag, i+k)
					}
					b.StartTimer()
				}
				if i == 2*lag {
					b.ReportAllocs()
					b.ResetTimer()
					copied, ops, reads = 0, 0, 0
				}
				st, err := dwc.Refresh(ctx, m, w, us[i%len(us)])
				if err != nil {
					b.Fatal(err)
				}
				if i >= 2*lag && st.Total() < 2 {
					b.Fatalf("update %d changed %d warehouse tuples, want an insert and a delete", i, st.Total())
				}
				copied += st.CopiedBytes
				ops += len(st.Eval.Ops)
				reads += st.RestrictedLookups + st.FullReconstructions
			}
			b.ReportMetric(float64(copied)/float64(b.N), "copied-B/op")
			b.ReportMetric(float64(ops)/float64(b.N), "ops/op")
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
		})
	}
}

// warmRefreshIndexes answers the query pool's point, join and union shapes
// on w, which caches the indexes they build on the views.
func warmRefreshIndexes(tb testing.TB, w *dwc.Warehouse) {
	tb.Helper()
	for _, q := range []string{
		"sigma{okey = 4711}(Order_paris)", "sigma{okey = 4711}(Order_tokyo)",
		"sigma{ckey = 17}(Order_paris join Customer)", "sigma{ckey = 17}(Order_tokyo join Customer)",
		"sigma{brand = 'brand-007'}((Order_paris union Order_tokyo) join Part)",
	} {
		if _, err := dwc.Answer(context.Background(), w, dwc.MustParseExpr(q)); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRefreshCopyCeiling puts ceilings on what BenchmarkRefreshScale
// reports per churn refresh, averaged over 256 refreshes after 2·64 warm-up
// updates, with the query pool's indexes cached: copied-B/op, the pages
// the copy-on-write apply copies, and the allocations of the refresh alone
// (the updates are built before it). The counts do not depend on the
// clock, so the ceilings are the means measured when they were last
// lowered — the allocations under -race, whose build makes ≈ 3 more — and
// a change that lowers a mean lowers its ceiling with it.
func TestRefreshCopyCeiling(t *testing.T) {
	const lag, measured = 64, 256
	for _, c := range []struct {
		rows           int
		copied, allocs int64
	}{{10_000, 47_278, 206}, {100_000, 46_428, 206}} {
		w := section5Warehouse(t, c.rows)
		warmRefreshIndexes(t, w)
		db, m := w.Complement().Database(), dwc.NewMaintainer(w.Complement())
		copied, allocs := int64(0), uint64(0)
		for i := 0; i < 2*lag+measured; i++ {
			u := churnUpdate(db, c.rows, lag, i)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := dwc.Refresh(context.Background(), m, w, u)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if i >= 2*lag {
				copied += st.CopiedBytes
				allocs += after.Mallocs - before.Mallocs
			}
		}
		mean := int64(allocs / measured)
		for _, k := range []struct {
			what          string
			mean, ceiling int64
		}{{"copies", copied / measured, c.copied}, {"allocations", mean, c.allocs}} {
			if k.mean > k.ceiling {
				t.Errorf("%d rows: a churn refresh's %s average %d, ceiling %d", c.rows, k.what, k.mean, k.ceiling)
			} else {
				t.Logf("%d rows: a churn refresh's %s average %d, ceiling %d", c.rows, k.what, k.mean, k.ceiling)
			}
		}
	}
}

// TestRefreshRetainsNoHistory: refreshes drop the warehouse versions
// before them, so 4000 churn refreshes on the 100k-row star leave the heap
// where it was. A page of a table copied on write must not keep the pages
// of earlier versions reachable: copied in one block with the leaf it
// copied, it would, since the leaf outlives the copy and the block keeps
// the copy's pointers alive — ≈ 1 KB more per refresh.
func TestRefreshRetainsNoHistory(t *testing.T) {
	const lag = 64
	w := section5Warehouse(t, 100_000)
	db, m := w.Complement().Database(), dwc.NewMaintainer(w.Complement())
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var before int64
	for i := range 5000 {
		if i == 1000 {
			before = heap()
		}
		if _, err := dwc.Refresh(context.Background(), m, w, churnUpdate(db, 100_000, lag, i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := heap() - before
	runtime.KeepAlive(w)
	if grown > 1<<20 {
		t.Fatalf("4000 refreshes grew the heap by %d bytes, want it flat", grown)
	}
}

// BenchmarkClone measures Relation.Clone of the 50k-row FactParis view,
// bare and carrying three cached indexes — what every refresh pays per
// dirty relation before it applies a delta.
func BenchmarkClone(b *testing.B) {
	w := section5Warehouse(b, 100_000)
	fact, _ := w.Relation("FactParis")
	for _, c := range []struct {
		name    string
		indexes [][]string
	}{{"bare", nil}, {"3idx", [][]string{{"okey"}, {"ckey"}, {"pkey"}}}} {
		b.Run(c.name, func(b *testing.B) {
			r := fact.Clone()
			for _, attrs := range c.indexes {
				r.Index(attrs...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r.Clone().Len() != r.Len() {
					b.Fatal("clone lost rows")
				}
			}
		})
	}
}

// BenchmarkScanAfterUpdate measures what an update leaves for the next
// column-major reader of the FactParis view, at three sizes: each
// iteration clones the current version, applies the process benchmark's
// churn shape — insert one order, delete the one inserted 64 updates
// earlier — and drains Batches of the new version. The row pages are
// what a scan reads, so the update's cost is the pages it copied and the
// scan's is reading them: ns/op, B/op and copied-B/op are the gate for
// "an update costs its delta, not the view" — the same at every size.
func BenchmarkScanAfterUpdate(b *testing.B) {
	const lag = 64
	for _, c := range []struct {
		name string
		rows int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run(c.name, func(b *testing.B) {
			fact, _ := section5Warehouse(b, c.rows).Relation("FactParis")
			order := func(okey int) relation.Tuple { // churnOrder's values in the view's column order
				vals := churnOrder("paris", okey, c.rows/20)
				t := make(relation.Tuple, len(vals))
				for i, a := range []string{"okey", "ckey", "pkey", "loc", "qty"} {
					p, _ := fact.Pos(a)
					t[p] = vals[i]
				}
				return t
			}
			drain := func(r *relation.Relation) (rows int) {
				for bt := range r.Batches() {
					rows += bt.Len()
				}
				return rows
			}
			cur, copied := fact.Clone(), int64(0)
			for i := 0; i < b.N+lag; i++ { // the first lag updates only insert
				if i == lag {
					runtime.GC() // the set-up's garbage is not the update's
					b.ReportAllocs()
					b.ResetTimer()
					copied = 0
				}
				next, okey := cur.Clone(), c.rows/2+1+i
				changed := next.Insert(order(okey))
				if i >= lag {
					changed = next.Delete(order(okey-lag)) && changed
				}
				copied += next.CopiedBytes()
				if rows := drain(next); !changed || rows != next.Len() {
					b.Fatalf("update %d: changed = %v, Batches cover %d of %d rows", i, changed, rows, next.Len())
				}
				cur = next
			}
			b.ReportMetric(float64(copied)/float64(b.N), "copied-B/op")
		})
	}
}

// BenchmarkCheckpoint measures what dwserve's checkpointer does on every
// 64th ack, at two sizes: 64 updates of the process benchmark's churn
// (untimed), then one save of the warehouse to a file — temp file, fsync,
// rename. A save encodes the pages those updates wrote and copies the
// cached sections of the rest, so pages-encoded/op is the same at both
// sizes and ms/op grows only by the write of a larger file.
func BenchmarkCheckpoint(b *testing.B) {
	const every, lag = 64, 64
	for _, c := range []struct {
		name string
		rows int
	}{{"10k", 10_000}, {"100k", 100_000}} {
		b.Run(c.name, func(b *testing.B) {
			w := section5Warehouse(b, c.rows)
			db, m := w.Complement().Database(), dwc.NewMaintainer(w.Complement())
			path := filepath.Join(b.TempDir(), "state.snap")
			ctx, applied, encoded, written := context.Background(), 0, 0, int64(0)
			churn := func(n int) {
				for ; n > 0; n-- {
					if _, err := dwc.Refresh(ctx, m, w, churnUpdate(db, c.rows, lag, applied)); err != nil {
						b.Fatal(err)
					}
					applied++
				}
			}
			churn(2 * lag) // past the updates that only insert
			if err := snapshot.SaveFileMarks(path, w.State(), nil); err != nil {
				b.Fatal(err) // the cold save: every page encoded
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				churn(every)
				b.StartTimer()
				st, err := snapshot.SaveFileMarksTimed(path, w.State(), map[string]uint64{"http": uint64(applied)})
				if err != nil || st.PagesEncoded == 0 {
					b.Fatalf("save after %d updates: %+v, error %v", applied, st, err)
				}
				encoded, written = encoded+st.PagesEncoded, written+st.Bytes
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(encoded)/float64(b.N), "pages-encoded/op")
			b.ReportMetric(float64(written)/float64(b.N), "file-B/op")
		})
	}
}

// bootFixture writes the Section-5 fixture over rows source rows the way a
// deployment holds it — the spec with one load statement per relation, the
// relations as CSV files beside it, and a marked checkpoint of the
// warehouse they materialize — and returns the spec text, the directory
// and the checkpoint's path.
func bootFixture(b *testing.B, rows int) (src, dir, snap string) {
	b.Helper()
	dir = b.TempDir()
	spec, err := dwc.ParseSpec(workload.Section5Spec)
	if err != nil {
		b.Fatal(err)
	}
	workload.FillSection5(spec.State, rows)
	var sb strings.Builder
	sb.WriteString(workload.Section5Spec)
	for _, name := range spec.DB.Names() {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			b.Fatal(err)
		}
		if err := spec.State.MustRelation(name).WriteCSV(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(&sb, "load %s from '%s.csv'\n", name, name)
	}
	w, err := dwc.BuildWarehouse(spec.DB, spec.Views, dwc.Theorem22(), spec.State)
	if err != nil {
		b.Fatal(err)
	}
	snap = filepath.Join(dir, "state.snap")
	if err := snapshot.SaveFileMarks(snap, w.State(), map[string]uint64{"http": 7}); err != nil {
		b.Fatal(err)
	}
	return sb.String(), dir, snap
}

// BenchmarkBoot measures what dwserve does before it listens, in process.
// first is a boot with nothing on disk but the sources: parse the spec,
// stream the CSVs into the initial state, check it, materialize W(d).
// restart is a boot with a checkpoint: parse the definitions, load and
// verify the snapshot — the CSV files are gone, because nothing may ask
// for them.
func BenchmarkBoot(b *testing.B) {
	for _, size := range []struct {
		name string
		rows int
	}{{"10k", 10_000}, {"100k", 100_000}} {
		src, dir, snap := bootFixture(b, size.rows)
		b.Run("first/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec, err := dwc.ParseSpecAt(src, dir)
				if err != nil {
					b.Fatal(err)
				}
				comp, err := dwc.ComputeComplement(spec.DB, spec.Views, dwc.Theorem22())
				if err != nil {
					b.Fatal(err)
				}
				if err := dwc.NewWarehouse(comp).Initialize(spec.State); err != nil {
					b.Fatal(err)
				}
			}
		})
		csvs, _ := filepath.Glob(filepath.Join(dir, "*.csv")) // the pattern is well-formed
		for _, path := range csvs {
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
		}
		b.Run("restart/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds, err := dwc.ParseSpecDefs(src, dir)
				if err == nil && len(ds.Issues) > 0 {
					err = ds.Issues[0]
				}
				if err != nil {
					b.Fatal(err)
				}
				comp, err := dwc.ComputeComplement(ds.Spec.DB, ds.Spec.Views, dwc.Theorem22())
				if err != nil {
					b.Fatal(err)
				}
				ms, _, err := snapshot.LoadFileMarks(snap)
				if err != nil {
					b.Fatal(err)
				}
				if err := dwc.VerifySnapshot(ms, comp.Resolver()); err != nil {
					b.Fatal(err)
				}
				w := dwc.NewWarehouse(comp)
				w.LoadState(ms)
			}
		})
	}
}
