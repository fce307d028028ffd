package constraint

import (
	"fmt"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/relation"
)

// Domain is a per-relation domain constraint: every tuple of Rel satisfies
// Cond. The star-schema setting of Section 5 needs these to express that a
// site's order relation carries that site's location value, which is what
// lets the complement machinery prove per-site complements empty and
// origin determination exact.
type Domain struct {
	Rel  string
	Cond algebra.Cond
}

// String renders the constraint in DSL form: "domain Order_paris: loc = 'paris'".
func (d Domain) String() string {
	return fmt.Sprintf("domain %s: %s", d.Rel, d.Cond)
}

// AddDomain records a domain constraint. Multiple constraints on the same
// relation conjoin.
func (s *Set) AddDomain(rel string, cond algebra.Cond) error {
	if cond == nil || algebra.IsTrivial(cond) {
		return fmt.Errorf("constraint: trivial domain constraint on %s", rel)
	}
	s.domains = append(s.domains, Domain{Rel: rel, Cond: cond})
	return nil
}

// Domains returns the domain constraints declared for the relation.
func (s *Set) Domains(rel string) []Domain {
	var out []Domain
	for _, d := range s.domains {
		if d.Rel == rel {
			out = append(out, d)
		}
	}
	return out
}

// AllDomains returns every declared domain constraint.
func (s *Set) AllDomains() []Domain { return s.domains }

// DomainImplies reports whether the condition is implied by the domain
// constraints of the given relations, using a sound structural check:
// every conjunct of cond must be structurally equal to some conjunct of
// some relation's domain constraint. (Richer implication — e.g. x > 5
// implying x > 3 — is not attempted.)
func (s *Set) DomainImplies(cond algebra.Cond, rels ...string) bool {
	var available []algebra.Cond
	for _, r := range rels {
		for _, d := range s.Domains(r) {
			available = append(available, algebra.Conjuncts(d.Cond)...)
		}
	}
	for _, c := range algebra.Conjuncts(cond) {
		ok := false
		for _, a := range available {
			if algebra.CondEqual(c, a) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// validateDomains checks domain constraints against the schemata: the
// relation must exist and the condition may only reference its attributes.
func (s *Set) validateDomains(schemas map[string]*relation.Schema) error {
	for _, d := range s.domains {
		sc, ok := schemas[d.Rel]
		if !ok {
			return fmt.Errorf("constraint: %s references unknown schema %s", d, d.Rel)
		}
		if ca := algebra.CondAttrs(d.Cond); !ca.SubsetOf(sc.AttrSet()) {
			return fmt.Errorf("constraint: %s references attributes %v outside %s",
				d, ca.Minus(sc.AttrSet()), d.Rel)
		}
	}
	return nil
}

// checkDomain verifies one domain constraint on its relation by selecting
// the tuples that break it.
func checkDomain(d Domain, r *relation.Relation) error {
	if r == nil {
		return nil
	}
	bad := algebra.SelectCond(r, &algebra.Not{C: d.Cond}, nil)
	if !bad.IsEmpty() {
		return fmt.Errorf("constraint: %s violated by %d tuple(s)", d, bad.Len())
	}
	return nil
}
