// Package star implements Section 5 of the paper: warehouses built on star
// schemata whose fact tables are integrated by union from several source
// sites. Views including union cannot be used for computing complements in
// general, but when every contributing part carries a distinguishing
// dimension value (a foreign key such as the location), "the presence of
// foreign keys allows us to uniquely determine the origin of each tuple in
// a fact table by selecting on the dimension attributes" — so each
// per-site part is recovered from the unioned fact table by a selection,
// and the PSJ complement machinery of package core applies unchanged. A
// star warehouse is a plain warehouse.Warehouse: its complement stores each
// fact table as one union target and writes W⁻¹ with origin selections on
// it, so packages warehouse and maintain answer, refresh and reconstruct
// it like any other.
package star

import (
	"fmt"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
	"dwcomplement/internal/warehouse"
)

// FactPart is one site's contribution to a union-integrated fact table:
// a PSJ view over that site's relations, tagged with the origin value its
// tuples carry in the fact table's origin attribute.
type FactPart struct {
	Origin relation.Value
	View   *view.PSJ
}

// FactSpec declares a union-integrated fact table: its warehouse name, the
// dimension attribute determining tuple origin, and the per-site parts.
// Every part's projection must contain OriginAttr; the origin selection
// σ_{OriginAttr=Origin} is added to each part's condition automatically,
// which makes the parts pairwise disjoint and origin determination exact.
type FactSpec struct {
	Name       string
	OriginAttr string
	Parts      []FactPart
}

// partName returns the internal view name for one part.
func (f *FactSpec) partName(origin relation.Value) string {
	return f.Name + "@" + origin.String()
}

// Build assembles the star warehouse: it validates the fact specs, adds the
// origin selections, computes the complement of the dimension and per-part
// views under opts, folds each fact table's parts into one stored target
// Fact = ∪ parts — W⁻¹ reads part p as σ_{origin(p)}(Fact) — and
// materializes from st.
func Build(db *catalog.Database, dims []*view.PSJ, facts []*FactSpec, opts core.Options, st algebra.State) (*warehouse.Warehouse, error) {
	all := append([]*view.PSJ(nil), dims...)
	folds := make([]map[string]algebra.Expr, len(facts))
	for fi, f := range facts {
		if len(f.Parts) == 0 {
			return nil, fmt.Errorf("star: fact table %s has no parts", f.Name)
		}
		folds[fi] = make(map[string]algebra.Expr, len(f.Parts))
		var schema relation.AttrSet
		for i, p := range f.Parts {
			if !p.View.ProjSet().Has(f.OriginAttr) {
				return nil, fmt.Errorf("star: part %d of %s does not project origin attribute %q",
					i, f.Name, f.OriginAttr)
			}
			if schema == nil {
				schema = p.View.ProjSet()
			} else if !schema.Equal(p.View.ProjSet()) {
				return nil, fmt.Errorf("star: parts of %s have differing schemas %v and %v",
					f.Name, schema, p.View.ProjSet())
			}
			pv := p.View.Clone()
			pv.Name = f.partName(p.Origin)
			if _, dup := folds[fi][pv.Name]; dup {
				return nil, fmt.Errorf("star: fact table %s declares origin %s twice", f.Name, p.Origin)
			}
			origin := algebra.AttrEqConst(f.OriginAttr, p.Origin)
			pv.Cond = algebra.AndAll(pv.Cond, origin)
			all = append(all, pv)
			folds[fi][pv.Name] = algebra.NewSelect(algebra.NewBase(f.Name), origin)
		}
	}

	views, err := view.NewSet(db, all...)
	if err != nil {
		return nil, err
	}
	comp, err := core.Compute(db, views, opts)
	if err != nil {
		return nil, err
	}
	for fi, f := range facts {
		if comp, err = comp.Fold(f.Name, folds[fi]); err != nil {
			return nil, err
		}
	}
	w := warehouse.New(comp)
	if err := w.Initialize(st); err != nil {
		return nil, err
	}
	return w, nil
}
