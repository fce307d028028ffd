package main

import (
	"context"
	"fmt"
	"strings"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

func corpusFor(db *catalog.Database, seed int64, n, size int) []algebra.State {
	return workload.States(workload.NewGen(db, seed).States(n, size)...)
}

// e1 — Figure 1 / Example 1.1: the complement and the maintenance of the
// paper's insertion, with zero source queries.
func e1() experiment {
	return experiment{
		id:    "E1",
		title: "warehouse complement and source-free maintenance",
		paper: "Figure 1, Example 1.1",
		run: func(c *config) error {
			sc := workload.Figure1(false)
			comp, err := core.Compute(sc.DB, sc.Views, core.Proposition22())
			if err != nil {
				return err
			}
			var rows [][]string
			for _, e := range comp.Entries() {
				rows = append(rows, []string{e.Name, e.Def.String(), e.Inverse.String()})
			}
			c.table([]string{"complement", "definition (paper's C1/C2)", "inverse (Equation 2)"}, rows)

			st := workload.Figure1State(sc.DB)
			w := warehouse.New(comp)
			if err := w.Initialize(st); err != nil {
				return err
			}
			u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
				relation.String_("Computer"), relation.String_("Paula"))
			stats, err := maintain.NewMaintainer(comp).RefreshContext(context.Background(), w, u)
			if err != nil {
				return err
			}
			sold, _ := w.Relation("Sold")
			joined := sold.Contains(relation.Tuple{relation.String_("Computer"), relation.String_("Paula"), relation.Int(32)})
			c.printf("  insert ⟨Computer, Paula⟩ into Sale: %d warehouse changes, join tuple present: %v\n",
				stats.Total(), joined)
			c.printf("  source queries issued during maintenance: 0 (by construction; see internal/source tests)\n")
			if !joined {
				return fmt.Errorf("paper's join tuple missing after maintenance")
			}
			return nil
		},
	}
}

// e2 — Example 1.2: query unanswerable from {Sold}, answerable after
// augmentation, with the paper's translated form.
func e2() experiment {
	return experiment{
		id:    "E2",
		title: "query answerability before and after augmentation",
		paper: "Example 1.2",
		run: func(c *config) error {
			sc := workload.Figure1(false)
			q := algebra.NewUnion(
				algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
				algebra.NewProject(algebra.NewBase("Emp"), "clerk"))
			soldDef := algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp"))

			full := workload.Figure1State(sc.DB)
			noPaula := full.Clone()
			noPaula.MustRelation("Emp").Delete(relation.Tuple{relation.String_("Paula"), relation.Int(32)})
			states := append(corpusFor(sc.DB, c.seed, 20, 6), full, noPaula)

			wn, found, err := warehouse.FindAnswerabilityWitness(q,
				map[string]algebra.Expr{"Sold": soldDef}, states)
			if err != nil {
				return err
			}
			c.printf("  un-augmented {Sold}: witness against answerability found: %v\n", found)
			if found {
				c.printf("    %s\n", wn)
			} else {
				return fmt.Errorf("expected a witness (paper: 'this query cannot be answered by the warehouse')")
			}

			comp, err := core.Compute(sc.DB, sc.Views, core.Proposition22())
			if err != nil {
				return err
			}
			w := warehouse.New(comp)
			if err := w.Initialize(full); err != nil {
				return err
			}
			qHat, err := w.TranslateQuery(q)
			if err != nil {
				return err
			}
			c.printf("  augmented warehouse translation:\n    Q̂ = %s\n", qHat)
			ans, _, err := w.AnswerContext(context.Background(), q)
			if err != nil {
				return err
			}
			c.printf("  answer: %d clerks (paper: Mary, John, Paula)\n", ans.Len())
			if ans.Len() != 3 {
				return fmt.Errorf("wrong answer cardinality %d", ans.Len())
			}
			return nil
		},
	}
}

// e3 — Proposition 2.1: injectivity of d ↦ ⟨V(d), C(d)⟩ and exact
// round-trips over random states.
func e3() experiment {
	return experiment{
		id:    "E3",
		title: "injectivity of the warehouse mapping and W⁻¹ round-trips",
		paper: "Proposition 2.1",
		run: func(c *config) error {
			n := 120
			if c.quick {
				n = 30
			}
			var rows [][]string
			for _, scenario := range []struct {
				sc   workload.Scenario
				opts core.Options
			}{
				{workload.Figure1(false), core.Proposition22()},
				{workload.Figure1(true), core.Theorem22()},
				{workload.Example23(workload.E23AllKeysAndINDs, true), core.Theorem22()},
			} {
				comp, err := core.Compute(scenario.sc.DB, scenario.sc.Views, scenario.opts)
				if err != nil {
					return err
				}
				states := corpusFor(scenario.sc.DB, c.seed, n, 6)
				injective := "PASS"
				if err := comp.CheckInjectivity(states); err != nil {
					injective = err.Error()
				}
				roundtrip := "PASS"
				if err := comp.CheckReconstruction(states); err != nil {
					roundtrip = err.Error()
				}
				rows = append(rows, []string{scenario.sc.Name, fmt.Sprint(len(states)), injective, roundtrip})
				if injective != "PASS" || roundtrip != "PASS" {
					return fmt.Errorf("%s: injectivity=%s roundtrip=%s", scenario.sc.Name, injective, roundtrip)
				}
			}
			c.table([]string{"scenario", "states", "injectivity", "W⁻¹∘W = id"}, rows)
			return nil
		},
	}
}

// e4 — Example 2.1: complement sizes with and without V2 = S, and the
// strict ordering C' ≺ C.
func e4() experiment {
	return experiment{
		id:    "E4",
		title: "complement shrinks as views are added (R ⋈ S ⋈ T)",
		paper: "Example 2.1, Theorem 2.1",
		run: func(c *config) error {
			one := workload.Example21(false)
			two := workload.Example21(true)
			c1, err := core.Compute(one.DB, one.Views, core.Proposition22())
			if err != nil {
				return err
			}
			c2, err := core.Compute(two.DB, two.Views, core.Proposition22())
			if err != nil {
				return err
			}
			sizes := []int{5, 10, 20, 40}
			if c.quick {
				sizes = []int{5, 10}
			}
			var rows [][]string
			for _, size := range sizes {
				st := workload.NewGen(two.DB, c.seed).State(size)
				s1, err := c1.StoredSize(st)
				if err != nil {
					return err
				}
				s2, err := c2.StoredSize(st)
				if err != nil {
					return err
				}
				rows = append(rows, []string{
					fmt.Sprint(st.Size()), fmt.Sprint(s1), fmt.Sprint(s2),
				})
			}
			c.table([]string{"|d| (tuples)", "|C| for {V1}", "|C'| for {V1,V2}"}, rows)

			states := corpusFor(two.DB, c.seed+1, 40, 8)
			res, err := core.Compare(c2, c1, states)
			if err != nil {
				return err
			}
			c.printf("  ordering verdict: C' is %s (paper: 'C' is strictly smaller than C')\n", res)
			if res != core.LeftSmaller {
				return fmt.Errorf("expected C' ≺ C, got %v", res)
			}
			return nil
		},
	}
}

// e5 — Example 2.2: Proposition 2.2 is not minimal for PSJ views.
func e5() experiment {
	return experiment{
		id:    "E5",
		title: "non-minimality of Prop 2.2 for PSJ views",
		paper: "Example 2.2",
		run: func(c *config) error {
			sc := workload.Example22()
			comp, err := core.Compute(sc.DB, sc.Views, core.Proposition22())
			if err != nil {
				return err
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

			sizes := []int{5, 10, 20, 40}
			if c.quick {
				sizes = []int{5, 10}
			}
			var rows [][]string
			for _, size := range sizes {
				st := workload.NewGen(sc.DB, c.seed).State(size)
				a, err := algebra.EvalCtx(nil, eR.Def, st)
				if err != nil {
					return err
				}
				b, err := algebra.EvalCtx(nil, cPrime, st)
				if err != nil {
					return err
				}
				rows = append(rows, []string{fmt.Sprint(st.Size()), fmt.Sprint(a.Len()), fmt.Sprint(b.Len())})
			}
			c.table([]string{"|R|", "|C_R| (Prop 2.2)", "|C'_R| (paper)"}, rows)

			states := corpusFor(sc.DB, c.seed+2, 40, 10)
			less, err := view.SetLess([]algebra.Expr{cPrime}, []algebra.Expr{eR.Def}, states)
			if err != nil {
				return err
			}
			c.printf("  C'_R strictly smaller on the corpus: %v (paper: 'in general strictly smaller')\n", less)
			if !less {
				return fmt.Errorf("expected C'_R ≺ C_R")
			}
			return nil
		},
	}
}

// e6 — Example 2.3: the effect of keys and INDs on complements and the
// cover listing C^ind_{R1}.
func e6() experiment {
	return experiment{
		id:    "E6",
		title: "keys and inclusion dependencies shrink complements",
		paper: "Example 2.3, Theorem 2.2",
		run: func(c *config) error {
			type variant struct {
				name string
				sc   workload.Scenario
				opts core.Options
			}
			variants := []variant{
				{"no constraints", workload.Example23(workload.E23None, true), core.Proposition22()},
				{"key A for R1", workload.Example23(workload.E23KeyR1, true), core.Options{UseKeys: true, DetectEmpty: true}},
				{"all keys + INDs", workload.Example23(workload.E23AllKeysAndINDs, true), core.Theorem22()},
			}
			var rows [][]string
			for _, v := range variants {
				comp, err := core.Compute(v.sc.DB, v.sc.Views, v.opts)
				if err != nil {
					return err
				}
				st := workload.NewGen(v.sc.DB, c.seed).State(12)
				size, err := comp.StoredSize(st)
				if err != nil {
					return err
				}
				e1, _ := comp.Entry("R1")
				empty := "no"
				if e1.AlwaysEmpty {
					empty = "yes (proved)"
				}
				rows = append(rows, []string{v.name, fmt.Sprint(len(comp.StoredEntries())), empty, fmt.Sprint(size)})
				if err := comp.CheckReconstruction(corpusFor(v.sc.DB, c.seed, 15, 6)); err != nil {
					return fmt.Errorf("%s: %w", v.name, err)
				}
			}
			c.table([]string{"constraints", "stored complements", "C_R1 empty", "stored tuples (|d|≈36)"}, rows)

			full := workload.Example23(workload.E23AllKeysAndINDs, true)
			comp, err := core.Compute(full.DB, full.Views, core.Theorem22())
			if err != nil {
				return err
			}
			e1, _ := comp.Entry("R1")
			var covers []string
			for _, cv := range e1.Covers {
				covers = append(covers, cv.String())
			}
			c.printf("  C^ind_R1 covers: %s\n", strings.Join(covers, ", "))
			c.printf("  (paper lists {V1}, {V3,V4}, {π_AB(R3),V4}, {V3,π_AC(R2)}, {π_AB(R3),π_AC(R2)})\n")
			if len(covers) != 5 {
				return fmt.Errorf("expected 5 covers, got %d", len(covers))
			}
			return nil
		},
	}
}

// e7 — Example 2.4: referential integrity proves the Sale-complement
// empty.
func e7() experiment {
	return experiment{
		id:    "E7",
		title: "referential integrity makes C_Sale vanish",
		paper: "Example 2.4",
		run: func(c *config) error {
			var rows [][]string
			for _, withRef := range []bool{false, true} {
				sc := workload.Figure1(withRef)
				opts := core.Proposition22()
				if withRef {
					opts = core.Theorem22()
				}
				comp, err := core.Compute(sc.DB, sc.Views, opts)
				if err != nil {
					return err
				}
				eSale, _ := comp.Entry("Sale")
				st := workload.NewGen(sc.DB, c.seed).State(15)
				size, err := comp.StoredSize(st)
				if err != nil {
					return err
				}
				label := "none"
				if withRef {
					label = "π_clerk(Sale) ⊆ π_clerk(Emp)"
				}
				rows = append(rows, []string{label, fmt.Sprint(eSale.AlwaysEmpty),
					fmt.Sprint(len(comp.StoredEntries())), fmt.Sprint(size)})
				if withRef && !eSale.AlwaysEmpty {
					return fmt.Errorf("C_Sale not proved empty under referential integrity")
				}
			}
			c.table([]string{"constraint", "C_Sale proved empty", "stored complements", "stored tuples"}, rows)
			return nil
		},
	}
}
