package main

import (
	"context"
	"fmt"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/star"
	"dwcomplement/internal/view"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

// cloneState deep-copies a warehouse snapshot.
func cloneState(ms algebra.MapState) algebra.MapState {
	out := make(algebra.MapState, len(ms))
	for name, r := range ms {
		out[name] = r.Clone()
	}
	return out
}

// timeIt runs fn repeatedly for at least minRounds and returns the mean
// duration.
func timeIt(minRounds int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < minRounds; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(minRounds), nil
}

// e8 — Figure 2 / Theorem 3.1: Q(d) = Q̂(W(d)) over query batteries, plus
// the cost of answering at the warehouse vs at the (hypothetical) source.
func e8() experiment {
	return experiment{
		id:    "E8",
		title: "query independence: correctness and translation overhead",
		paper: "Figure 2, Section 3, Theorem 3.1",
		run: func(c *config) error {
			sc := workload.Figure1(true)
			comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
			if err != nil {
				return err
			}
			queries := []algebra.Expr{
				algebra.NewBase("Sale"),
				algebra.NewBase("Emp"),
				algebra.NewUnion(
					algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
					algebra.NewProject(algebra.NewBase("Emp"), "clerk")),
				algebra.NewDiff(
					algebra.NewProject(algebra.NewBase("Emp"), "clerk"),
					algebra.NewProject(algebra.NewBase("Sale"), "clerk")),
				algebra.NewProject(
					algebra.NewSelect(
						algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
						algebra.AttrCmpConst("age", algebra.OpLt, relation.Int(40))),
					"item", "clerk"),
			}
			nStates, size := 25, 60
			if c.quick {
				nStates, size = 8, 20
			}
			states := corpusFor(sc.DB, c.seed, nStates, size)
			w := warehouse.New(comp)
			if err := w.Initialize(states[len(states)-1]); err != nil {
				return err
			}
			var rows [][]string
			for qi, q := range queries {
				qHat, err := w.TranslateQuery(q)
				if err != nil {
					return err
				}
				qHatPlain, err := w.TranslateQueryUnoptimized(q)
				if err != nil {
					return err
				}
				mismatches := 0
				for _, st := range states {
					want, err := algebra.EvalCtx(nil, q, st)
					if err != nil {
						return err
					}
					ws, err := comp.MaterializeWarehouseCtx(nil, st)
					if err != nil {
						return err
					}
					got, err := algebra.EvalCtx(nil, qHat, ws)
					if err != nil {
						return err
					}
					if !got.Equal(want) {
						mismatches++
					}
				}
				last := states[len(states)-1]
				tSrc, err := timeIt(50, func() error { _, e := algebra.EvalCtx(nil, q, last); return e })
				if err != nil {
					return err
				}
				tPlain, err := timeIt(50, func() error { _, e := algebra.EvalCtx(nil, qHatPlain, w); return e })
				if err != nil {
					return err
				}
				tWh, err := timeIt(50, func() error { _, e := algebra.EvalCtx(nil, qHat, w); return e })
				if err != nil {
					return err
				}
				rows = append(rows, []string{
					fmt.Sprintf("Q%d", qi+1),
					fmt.Sprint(algebra.Size(q)),
					fmt.Sprint(algebra.Size(qHat)),
					fmt.Sprint(mismatches),
					tSrc.String(),
					tPlain.String(),
					tWh.String(),
				})
				if mismatches > 0 {
					return fmt.Errorf("query %d: %d mismatching states", qi, mismatches)
				}
			}
			c.table([]string{"query", "|Q| nodes", "|Q̂| nodes", "mismatches", "eval at source", "warehouse (no pushdown)", "warehouse (pushdown)"}, rows)
			c.printf("  (paper's claim is the commuting diagram: 0 mismatches expected everywhere;\n")
			c.printf("   the pushdown column is this implementation's optimizer ablation)\n")
			return nil
		},
	}
}

// e9 — Figure 3 / Theorem 4.1 / Example 4.1: update independence via both
// routes, plus the derived symbolic maintenance expressions.
func e9() experiment {
	return experiment{
		id:    "E9",
		title: "update independence: incremental = recompute = W(d')",
		paper: "Figure 3, Section 4, Theorem 4.1, Example 4.1",
		run: func(c *config) error {
			sc := workload.Figure1(false)
			comp, err := core.Compute(sc.DB, sc.Views, core.Proposition22())
			if err != nil {
				return err
			}

			// The symbolic maintenance program of Example 4.1.
			shape := maintain.InsertionsInto("Sale")
			sold := sc.Views.Views()[0]
			m, err := maintain.Derive("Sold", sold.Expr(), shape, sc.DB)
			if err != nil {
				return err
			}
			wm := maintain.TranslateToWarehouse(m, comp)
			c.printf("  Example 4.1 maintenance for insertions s into Sale (warehouse-only):\n")
			c.printf("    Sold  gains  %s\n", wm.Ins)
			for _, e := range comp.StoredEntries() {
				me, err := maintain.Derive(e.Name, e.Def, shape, sc.DB)
				if err != nil {
					return err
				}
				wme := maintain.TranslateToWarehouse(me, comp)
				c.printf("    %-6s gains %s\n           loses %s\n", e.Name, wme.Ins, wme.Del)
			}

			rounds := 30
			if c.quick {
				rounds = 8
			}
			gen := workload.NewGen(sc.DB, c.seed)
			st := gen.State(40)
			disagreements, wrong := 0, 0
			for i := 0; i < rounds; i++ {
				u := gen.Update(st, 3, 2)
				wInc := warehouse.New(comp)
				if err := wInc.Initialize(st); err != nil {
					return err
				}
				if _, err := maintain.NewMaintainer(comp).RefreshContext(context.Background(), wInc, u); err != nil {
					return err
				}
				wRec := warehouse.New(comp)
				if err := wRec.Initialize(st); err != nil {
					return err
				}
				if err := maintain.NewMaintainer(comp).RefreshByRecompute(wRec, u); err != nil {
					return err
				}
				post := st.Clone()
				if err := u.Apply(post); err != nil {
					return err
				}
				want, err := comp.MaterializeWarehouseCtx(nil, post)
				if err != nil {
					return err
				}
				for name, wantRel := range want {
					a, _ := wInc.Relation(name)
					b, _ := wRec.Relation(name)
					if !a.Equal(b) {
						disagreements++
					}
					if !a.Equal(wantRel) {
						wrong++
					}
				}
				st = post
			}
			c.printf("  %d random refresh rounds: incremental vs recompute disagreements = %d, w' ≠ W(d') cases = %d\n",
				rounds, disagreements, wrong)
			if disagreements > 0 || wrong > 0 {
				return fmt.Errorf("update independence violated")
			}
			return nil
		},
	}
}

// e10 — end of Section 4: σ-views are update-independent without a
// complement but not query-independent.
func e10() experiment {
	return experiment{
		id:    "E10",
		title: "σ-view warehouses: update-independent, not query-independent",
		paper: "Section 4 (closing observation)",
		run: func(c *config) error {
			db := catalog.NewDatabase().
				MustAddSchema(relation.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
			vs := view.MustNewSet(db, view.NewPSJ("Old", []string{"clerk", "age"},
				algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(30)), "Emp"))
			m, err := maintain.NewSigmaMaintainer(db, vs)
			if err != nil {
				return err
			}
			gen := workload.NewGen(db, c.seed)
			st := gen.State(30)
			w, err := m.Materialize(st)
			if err != nil {
				return err
			}
			rounds := 25
			if c.quick {
				rounds = 8
			}
			bad := 0
			for i := 0; i < rounds; i++ {
				u := gen.Update(st, 3, 3)
				if err := m.Refresh(w, u); err != nil {
					return err
				}
				if err := u.Apply(st); err != nil {
					return err
				}
				want, err := m.Materialize(st)
				if err != nil {
					return err
				}
				if !w["Old"].Equal(want["Old"]) {
					bad++
				}
			}
			c.printf("  update independence without any complement: %d/%d rounds exact\n", rounds-bad, rounds)

			def := algebra.NewSelect(algebra.NewBase("Emp"),
				algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(30)))
			a := db.NewState().MustInsert("Emp", relation.String_("Paula"), relation.Int(32))
			b := a.Clone().MustInsert("Emp", relation.String_("Mary"), relation.Int(23))
			states := append(corpusFor(db, c.seed, 20, 8), workload.States(a, b)...)
			_, found, err := warehouse.FindAnswerabilityWitness(
				algebra.NewBase("Emp"), map[string]algebra.Expr{"Old": def}, states)
			if err != nil {
				return err
			}
			c.printf("  query independence refuted (witness states agree on σ-view, differ on Emp): %v\n", found)
			if bad > 0 || !found {
				return fmt.Errorf("σ-view claims not reproduced (bad=%d, witness=%v)", bad, found)
			}
			return nil
		},
	}
}

// e11 — Section 5: the star-schema business warehouse.
func e11() experiment {
	return experiment{
		id:    "E11",
		title: "star schema: union fact tables, origin determination, zero-storage independence",
		paper: "Section 5",
		run: func(c *config) error {
			sf, orders := 100, 400
			if c.quick {
				sf, orders = 20, 60
			}
			var rows [][]string
			for _, slim := range []bool{false, true} {
				b, err := star.NewBusiness([]string{"paris", "tokyo", "austin"}, slim)
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
				stored := 0
				for _, e := range w.Complement().StoredEntries() {
					if r, ok := w.Relation(e.Name); ok {
						stored += r.Len()
					}
				}
				// Maintenance round-trip.
				m := maintain.NewMaintainer(w.Complement())
				cur := st.Clone()
				rounds := 10
				if c.quick {
					rounds = 3
				}
				for i := 0; i < rounds; i++ {
					u := b.RandomOrderUpdate(cur, 4, 2, c.seed+int64(i))
					if _, err := m.RefreshContext(context.Background(), w, u); err != nil {
						return err
					}
					if err := u.Apply(cur); err != nil {
						return err
					}
				}
				fresh, err := b.BuildWarehouse(cur)
				if err != nil {
					return err
				}
				drift := 0
				for _, name := range fresh.Names() {
					gr, _ := w.Relation(name)
					fr, _ := fresh.Relation(name)
					if !gr.Equal(fr) {
						drift++
					}
				}
				variant := "full fact table"
				if slim {
					variant = "slim fact table (qty dropped)"
				}
				rows = append(rows, []string{
					variant,
					fmt.Sprint(len(w.Complement().StoredEntries())),
					fmt.Sprint(stored),
					fmt.Sprint(cur.Size()),
					fmt.Sprint(drift),
				})
				if drift > 0 {
					return fmt.Errorf("%s: warehouse drifted after refreshes", variant)
				}
			}
			c.table([]string{"variant", "stored complements", "complement tuples", "source tuples", "drift after refreshes"}, rows)
			c.printf("  (paper: foreign keys let union fact tables participate in complements;\n")
			c.printf("   the full fact table needs zero auxiliary storage)\n")
			return nil
		},
	}
}

// e12 — the motivation behind Section 4: incremental warehouse-only
// maintenance vs full recomputation, swept over base and delta size.
func e12() experiment {
	return experiment{
		id:    "E12",
		title: "incremental vs recompute maintenance cost",
		paper: "Sections 1 and 4 (motivation for incremental expressions)",
		run: func(c *config) error {
			sc := workload.Figure1(true)
			comp, err := core.Compute(sc.DB, sc.Views, core.Theorem22())
			if err != nil {
				return err
			}
			baseSizes := []int{50, 200, 800}
			deltas := []int{1, 10, 50}
			if c.quick {
				baseSizes = []int{50, 200}
				deltas = []int{1, 10}
			}
			var rows [][]string
			for _, bs := range baseSizes {
				gen := workload.NewGen(sc.DB, c.seed)
				gen.Domain = bs // spread values so states actually grow
				st := gen.State(bs)
				base := warehouse.New(comp)
				if err := base.Initialize(st); err != nil {
					return err
				}
				snapshot := base.CloneState()
				for _, ds := range deltas {
					u := gen.Update(st, ds, ds/2)
					w := warehouse.New(comp)
					m := maintain.NewMaintainer(comp)
					tInc, err := timeIt(5, func() error {
						w.LoadState(cloneState(snapshot))
						_, err := m.RefreshContext(context.Background(), w, u)
						return err
					})
					if err != nil {
						return err
					}
					tRec, err := timeIt(5, func() error {
						w.LoadState(cloneState(snapshot))
						return m.RefreshByRecompute(w, u)
					})
					if err != nil {
						return err
					}
					ratio := float64(tRec) / float64(tInc)
					rows = append(rows, []string{
						fmt.Sprint(st.Size()), fmt.Sprint(u.Size()),
						tInc.String(), tRec.String(), fmt.Sprintf("%.2fx", ratio),
					})
				}
			}
			c.table([]string{"|d| tuples", "|u| changes", "incremental", "recompute", "recompute/incremental"}, rows)
			c.printf("  (expected shape: the ratio grows with |d| and shrinks with |u| —\n")
			c.printf("   incremental wins for small updates on large states)\n")
			return nil
		},
	}
}

// e13 — cost of complement computation itself as the schema grows.
func e13() experiment {
	return experiment{
		id:    "E13",
		title: "complement computation cost vs schema and view count",
		paper: "Section 2 (algorithmic core)",
		run: func(c *config) error {
			sizes := []int{2, 4, 8, 12}
			if c.quick {
				sizes = []int{2, 4}
			}
			var rows [][]string
			for _, n := range sizes {
				db, views := workload.ChainSchema(n)
				t, err := timeIt(10, func() error {
					_, err := core.Compute(db, views, core.Theorem22())
					return err
				})
				if err != nil {
					return err
				}
				comp, err := core.Compute(db, views, core.Theorem22())
				if err != nil {
					return err
				}
				covers := 0
				for _, e := range comp.Entries() {
					covers += len(e.Covers)
				}
				rows = append(rows, []string{
					fmt.Sprint(n), fmt.Sprint(views.Len()), fmt.Sprint(covers), t.String(),
				})
			}
			c.table([]string{"relations", "views", "total covers", "Compute time"}, rows)
			return nil
		},
	}
}

// e14 — complement storage as view coverage and constraints grow.
func e14() experiment {
	return experiment{
		id:    "E14",
		title: "complement storage fraction vs view coverage and constraints",
		paper: "Section 2 (size of complements)",
		run: func(c *config) error {
			size := 50
			if c.quick {
				size = 15
			}
			sc := workload.Example23(workload.E23AllKeysAndINDs, true)
			gen := workload.NewGen(sc.DB, c.seed)
			st := gen.State(size)
			total := st.Size()

			viewSubsets := []struct {
				label string
				names map[string]bool
			}{
				{"{V1}", map[string]bool{"V1": true}},
				{"{V1,V2}", map[string]bool{"V1": true, "V2": true}},
				{"{V1,V2,V3}", map[string]bool{"V1": true, "V2": true, "V3": true}},
				{"{V1,V2,V3,V4}", map[string]bool{"V1": true, "V2": true, "V3": true, "V4": true}},
			}
			var rows [][]string
			for _, sub := range viewSubsets {
				var keep []*view.PSJ
				for _, v := range sc.Views.Views() {
					if sub.names[v.Name] {
						keep = append(keep, v.Clone())
					}
				}
				vs, err := view.NewSet(sc.DB, keep...)
				if err != nil {
					return err
				}
				noCons, err := core.Compute(sc.DB, vs, core.Proposition22())
				if err != nil {
					return err
				}
				withCons, err := core.Compute(sc.DB, vs, core.Theorem22())
				if err != nil {
					return err
				}
				a, err := noCons.StoredSize(st)
				if err != nil {
					return err
				}
				b, err := withCons.StoredSize(st)
				if err != nil {
					return err
				}
				rows = append(rows, []string{
					sub.label,
					fmt.Sprintf("%d (%.0f%%)", a, 100*float64(a)/float64(total)),
					fmt.Sprintf("%d (%.0f%%)", b, 100*float64(b)/float64(total)),
				})
			}
			c.table([]string{"warehouse views", "complement tuples (no constraints)", "with keys+INDs"}, rows)
			c.printf("  source state: %d tuples; expected shape: both columns fall as views\n", total)
			c.printf("  are added, and the constraint column falls faster (Theorem 2.2)\n")
			return nil
		},
	}
}
