package core

import (
	"fmt"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/par"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
)

// MaterializeWarehouseCtx evaluates the augmented warehouse W = V ∪ C on
// a database state d: every stored target, keyed by warehouse name. This
// is the mapping W(d) of Proposition 2.1. Under a non-nil evaluation
// context the cover joins of every target definition check for
// cancellation at operator boundaries and record their counters. The
// definitions are evaluated side by side (par.Do): st must not change
// during the call and its Relation method must be safe for concurrent use
// (catalog.State, MapState and Warehouse are). The error returned is the
// first in target order.
func (c *Complement) MaterializeWarehouseCtx(ec *algebra.EvalContext, st algebra.State) (algebra.MapState, error) {
	rels := make([]*relation.Relation, len(c.targets))
	err := par.Do(len(rels), func(i int) (err error) {
		rels[i], err = algebra.EvalCtx(ec, c.targets[i].Def, st)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(algebra.MapState, len(rels))
	for i, t := range c.targets {
		out[t.Name] = rels[i]
	}
	return out, nil
}

// ReconstructCtx applies W⁻¹ to a warehouse state under an evaluation
// context (nil for none): it recomputes every base relation from
// warehouse relations only (Equation 2 / 4) and returns the result keyed
// by base name.
func (c *Complement) ReconstructCtx(ec *algebra.EvalContext, w algebra.State) (map[string]*relation.Relation, error) {
	out := make(map[string]*relation.Relation, len(c.entries))
	for _, e := range c.entries {
		r, err := algebra.EvalCtx(ec, e.Inverse, w)
		if err != nil {
			return nil, fmt.Errorf("core: reconstructing %s: %w", e.Base, err)
		}
		out[e.Base] = r
	}
	return out, nil
}

// CheckReconstruction verifies the defining property of a complement
// (Definition 2.2) on the given states: for each state d, materializing
// W = V ∪ C and applying W⁻¹ must reproduce every base relation exactly.
// It returns the first discrepancy as an error.
func (c *Complement) CheckReconstruction(states []algebra.State) error {
	for i, st := range states {
		w, err := c.MaterializeWarehouseCtx(nil, st)
		if err != nil {
			return err
		}
		rec, err := c.ReconstructCtx(nil, w)
		if err != nil {
			return err
		}
		for _, base := range c.db.Names() {
			orig, ok := st.Relation(base)
			if !ok {
				return fmt.Errorf("core: state %d lacks base relation %s", i, base)
			}
			if !rec[base].Equal(orig) {
				return fmt.Errorf("core: state %d: W⁻¹ does not reproduce %s: got %d tuples, want %d\ninverse: %s",
					i, base, rec[base].Len(), orig.Len(), c.byBase[base].Inverse)
			}
		}
	}
	return nil
}

// CheckInjectivity verifies Proposition 2.1's characterization on the
// given states: pairwise distinct database states must map to pairwise
// distinct warehouse states. It returns an error naming the first
// collision found.
func (c *Complement) CheckInjectivity(states []algebra.State) error {
	type image struct {
		stateIdx int
		dFp      string
		wFp      string
	}
	var images []image
	for i, st := range states {
		w, err := c.MaterializeWarehouseCtx(nil, st)
		if err != nil {
			return err
		}
		images = append(images, image{i, stateFingerprint(c, st), warehouseFingerprint(w)})
	}
	seen := make(map[string]image, len(images))
	for _, im := range images {
		if prev, ok := seen[im.wFp]; ok && prev.dFp != im.dFp {
			return fmt.Errorf("core: injectivity violated: distinct states %d and %d share warehouse image", prev.stateIdx, im.stateIdx)
		}
		seen[im.wFp] = im
	}
	return nil
}

func stateFingerprint(c *Complement, st algebra.State) string {
	fp := ""
	for _, base := range c.db.Names() {
		r, _ := st.Relation(base)
		fp += base + "=" + r.Fingerprint() + "#"
	}
	return fp
}

func warehouseFingerprint(w algebra.MapState) string {
	names := make([]string, 0, len(w))
	for n := range w {
		names = append(names, n)
	}
	// Deterministic order.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	fp := ""
	for _, n := range names {
		fp += n + "=" + w[n].Fingerprint() + "#"
	}
	return fp
}

// StoredSize returns the total number of tuples the warehouse must
// materialize for state d beyond the views themselves: the complement
// storage cost measured by experiment E14.
func (c *Complement) StoredSize(st algebra.State) (int, error) {
	n := 0
	for _, e := range c.StoredEntries() {
		r, err := algebra.EvalCtx(nil, e.Def, st)
		if err != nil {
			return 0, err
		}
		n += r.Len()
	}
	return n, nil
}

// DefExprs returns the complement definitions as a slice of expressions
// over D (Empty for proved-empty entries), in database order — the shape
// the view-set ordering of Definition 2.1 compares.
func (c *Complement) DefExprs() []algebra.Expr {
	out := make([]algebra.Expr, len(c.entries))
	for i, e := range c.entries {
		out[i] = e.Def
	}
	return out
}

// CompareResult reports how two complements relate under the empirical
// view-set ordering of Definition 2.1.
type CompareResult int

// The possible outcomes of Compare.
const (
	Incomparable CompareResult = iota
	Equivalent
	LeftSmaller
	RightSmaller
)

// String names the comparison outcome.
func (r CompareResult) String() string {
	switch r {
	case Equivalent:
		return "equivalent"
	case LeftSmaller:
		return "left strictly smaller"
	case RightSmaller:
		return "right strictly smaller"
	default:
		return "incomparable"
	}
}

// Compare orders two complements over the same database under the sampled
// view-set ordering (both must have one entry per base relation, which
// Compute guarantees).
func Compare(a, b *Complement, states []algebra.State) (CompareResult, error) {
	ab, err := view.SetLeq(a.DefExprs(), b.DefExprs(), states)
	if err != nil {
		return Incomparable, err
	}
	ba, err := view.SetLeq(b.DefExprs(), a.DefExprs(), states)
	if err != nil {
		return Incomparable, err
	}
	switch {
	case ab && ba:
		return Equivalent, nil
	case ab:
		return LeftSmaller, nil
	case ba:
		return RightSmaller, nil
	default:
		return Incomparable, nil
	}
}
