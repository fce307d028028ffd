package maintain

import (
	"fmt"
	"sort"
	"strings"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/core"
)

// Specification is the complete output of the paper's Section 5 algorithm
// — "our approach proceeds in a number of steps to determine a complement
// C of V, a set of algebraic expressions for computing the answers to
// queries over base data in terms of the warehouse and its complement,
// and a set of algebraic expressions for computing the changes of the
// warehouse and its complement in terms of the base relations and their
// changes":
//
//	Step 1.1  the complement C (Entries of the embedded Complement);
//	Step 1.2  the inverse W⁻¹ (Inverses);
//	Step 2    query translation = substitution of Inverses (the rule is
//	          mechanical, so the specification carries the substitution);
//	Step 3    warehouse-only incremental maintenance programs, one per
//	          warehouse relation and update class (Programs).
//
// Everything is derived at warehouse-definition time; "the warehouse user
// does not need to be aware of complementary views or query rewriting".
type Specification struct {
	Complement *core.Complement
	// Inverses maps every base relation to its warehouse-only expression
	// (Step 1.2; Equation 2/4).
	Inverses map[string]algebra.Expr
	// Programs maps warehouse relation → update class → maintenance
	// program in warehouse-and-delta terms only (Step 3). Update classes
	// are "ins:<R>" and "del:<R>" for every base relation R occurring in
	// the target's definition.
	Programs map[string]map[string]MaintenanceExprs
}

// Specify runs Section 5's Steps 1–3 for the complement's warehouse.
func Specify(comp *core.Complement) (*Specification, error) {
	spec := &Specification{
		Complement: comp,
		Inverses:   comp.InverseMap(),
		Programs:   make(map[string]map[string]MaintenanceExprs),
	}
	db := comp.Database()
	for _, t := range comp.Targets() {
		name, def := t.Name, t.Def
		progs := make(map[string]MaintenanceExprs)
		involved := algebra.Bases(def)
		attrs, err := algebra.Attrs(def, db)
		if err != nil {
			return nil, fmt.Errorf("maintain: specification of %s: %w", name, err)
		}
		for _, base := range db.Names() {
			for class, shape := range map[string]Shape{
				"ins:" + base: InsertionsInto(base),
				"del:" + base: DeletionsFrom(base),
			} {
				if !involved.Has(base) {
					// Updates to uninvolved relations never change the
					// target: the program is the explicit no-op.
					progs[class] = MaintenanceExprs{
						Target: name,
						Ins:    algebra.NewEmptySet(attrs),
						Del:    algebra.NewEmptySet(attrs),
					}
					continue
				}
				m, err := Derive(name, def, shape, db)
				if err != nil {
					return nil, fmt.Errorf("maintain: specification of %s under %s: %w", name, class, err)
				}
				progs[class] = TranslateToWarehouse(m, comp)
			}
		}
		spec.Programs[name] = progs
	}
	return spec, nil
}

// TranslateQuery applies Step 2 to a source query: substitution of every
// base relation by its inverse, then pushdown optimization over the
// warehouse name space.
func (s *Specification) TranslateQuery(q algebra.Expr) (algebra.Expr, error) {
	db := s.Complement.Database()
	if _, err := algebra.Attrs(q, db); err != nil {
		return nil, fmt.Errorf("maintain: query invalid over the sources: %w", err)
	}
	res := s.Complement.Resolver()
	t := algebra.Optimize(algebra.Substitute(q, s.Inverses), res)
	if _, err := algebra.Attrs(t, res); err != nil {
		return nil, fmt.Errorf("maintain: translated query invalid: %w", err)
	}
	return t, nil
}

// String renders the whole specification as the document Section 5
// describes: complement, inverses, and per-relation maintenance programs.
func (s *Specification) String() string {
	var b strings.Builder
	b.WriteString("== Step 1.1: complement ==\n")
	for _, e := range s.Complement.Entries() {
		fmt.Fprintf(&b, "%s = %s", e.Name, e.Def)
		if e.AlwaysEmpty {
			b.WriteString("   (always empty, not stored)")
		}
		b.WriteByte('\n')
	}
	b.WriteString("\n== Step 1.2: inverse mapping W⁻¹ ==\n")
	bases := make([]string, 0, len(s.Inverses))
	for base := range s.Inverses {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		fmt.Fprintf(&b, "%s = %s\n", base, s.Inverses[base])
	}
	b.WriteString("\n== Step 2: query translation ==\n")
	b.WriteString("substitute the inverse for every base relation, then push selections/projections down\n")
	b.WriteString("\n== Step 3: maintenance programs (warehouse-only) ==\n")
	targets := make([]string, 0, len(s.Programs))
	for t := range s.Programs {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, target := range targets {
		classes := make([]string, 0, len(s.Programs[target]))
		for c := range s.Programs[target] {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, class := range classes {
			p := s.Programs[target][class]
			fmt.Fprintf(&b, "[%s] %s:\n  gains %s\n  loses %s\n", class, target, p.Ins, p.Del)
		}
	}
	return b.String()
}
