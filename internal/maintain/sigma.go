package maintain

import (
	"fmt"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/view"
)

// SigmaMaintainer implements the observation closing Section 4: a
// warehouse consisting solely of selection views W = σ_c(R) is
// update-independent without any complement, because
//
//	σ_c(r ∪ Δr) = σ_c(r) ∪ σ_c(Δr)   and   σ_c(r ∖ Δr) = σ_c(r) ∖ σ_c(Δr),
//
// so every source update translates directly into a warehouse update from
// Δr and the view definition alone. Such warehouses are generally NOT
// query-independent (tuples failing the selection are unrecoverable);
// experiment E10 exhibits the witness.
type SigmaMaintainer struct {
	views *view.Set
	empty *catalog.State // the pre-state Refresh propagates against
}

// NewSigmaMaintainer validates that every view is a σ-view — a single base
// relation, identity projection, arbitrary selection — and returns the
// complement-free maintainer.
func NewSigmaMaintainer(db *catalog.Database, views *view.Set) (*SigmaMaintainer, error) {
	for _, v := range views.Views() {
		if len(v.Bases) != 1 {
			return nil, fmt.Errorf("maintain: %s is not a σ-view: joins %d relations", v.Name, len(v.Bases))
		}
		sc, ok := db.Schema(v.Bases[0])
		if !ok {
			return nil, fmt.Errorf("maintain: %s references unknown relation %q: %w", v.Name, v.Bases[0], algebra.ErrUnknownRelation)
		}
		if !v.ProjSet().Equal(sc.AttrSet()) {
			return nil, fmt.Errorf("maintain: %s is not a σ-view: projects %v instead of %v",
				v.Name, v.ProjSet(), sc.AttrSet())
		}
	}
	return &SigmaMaintainer{views: views, empty: db.NewState()}, nil
}

// Materialize evaluates all σ-views on a database state.
func (m *SigmaMaintainer) Materialize(st algebra.State) (algebra.MapState, error) {
	out := make(algebra.MapState, m.views.Len())
	for _, v := range m.views.Views() {
		r, err := v.EvalCtx(nil, st)
		if err != nil {
			return nil, err
		}
		out[v.Name] = r
	}
	return out, nil
}

// Refresh applies the source update to the σ-view warehouse state in
// place, using only the update and the view definitions — no complement,
// no source access, no reconstruction. Each view's delta comes from the
// one delta rule, Propagate, run against an empty pre-state: the σ rule
// reads no pre-state value, so the empty state serves as well as the real
// one would.
func (m *SigmaMaintainer) Refresh(w algebra.MapState, u *catalog.Update) error {
	for _, v := range m.views.Views() {
		r, ok := w[v.Name]
		if !ok {
			return fmt.Errorf("maintain: warehouse state lacks %q", v.Name)
		}
		d, err := Propagate(algebra.NewSelect(algebra.NewBase(v.Bases[0]), v.Cond), m.empty, u)
		if err != nil {
			return err
		}
		d.Exact(r).ApplyTo(r)
	}
	return nil
}
