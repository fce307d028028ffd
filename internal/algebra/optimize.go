package algebra

import (
	"fmt"

	"dwcomplement/internal/relation"
)

// Optimize rewrites e into an equivalent expression with selections and
// projections pushed towards the leaves — the rewrites that matter for
// translated warehouse queries (Theorem 3.1), whose shape after inverse
// substitution is σ/π over unions of complements and view projections:
//
//	σ_c(L ∪ R)   → σ_c(L) ∪ σ_c(R)
//	σ_c(L ∖ R)   → σ_c(L) ∖ σ_c(R)
//	σ_c(π_Z(E))  → π_Z(σ_c(E))
//	σ_c(ρ_m(E))  → ρ_m(σ_{m⁻¹(c)}(E))
//	σ_c(⋈ Ei)    → conjuncts of c pushed into every input covering them
//	π_Z(L ∪ R)   → π_Z(L) ∪ π_Z(R)
//	π_Z(⋈ Ei)    → π_Z(⋈ π_{(Z ∪ shared) ∩ attr(Ei)}(Ei))
//
// followed by Simplify. The resolver is required for the join projection
// rule (input attribute sets); with a nil resolver those rules are
// skipped. Like Simplify, Optimize never changes semantics — the test
// suite checks equivalence on random expressions and states.
func Optimize(e Expr, res Resolver) Expr {
	out := optimize(e, res)
	return Simplify(out, res)
}

func optimize(e Expr, res Resolver) Expr {
	switch n := e.(type) {
	case *Base, *Empty:
		return Clone(e)

	case *Select:
		in := optimize(n.Input, res)
		return pushSelect(CloneCond(n.Cond), in, res)

	case *Project:
		in := optimize(n.Input, res)
		return pushProject(append([]string(nil), n.Attrs...), in, res)

	case *Join:
		ins := make([]Expr, len(n.Inputs))
		for i, input := range n.Inputs {
			ins[i] = optimize(input, res)
		}
		return &Join{Inputs: ins}

	case *Union:
		return &Union{L: optimize(n.L, res), R: optimize(n.R, res)}

	case *Diff:
		return &Diff{L: optimize(n.L, res), R: optimize(n.R, res)}

	case *Rename:
		m := make(map[string]string, len(n.Mapping))
		for k, v := range n.Mapping {
			m[k] = v
		}
		return &Rename{Input: optimize(n.Input, res), Mapping: m}

	default:
		panic(fmt.Sprintf("algebra: unknown node %T", e))
	}
}

// pushSelect sinks σ_cond into the (already optimized) input.
func pushSelect(cond Cond, in Expr, res Resolver) Expr {
	if IsTrivial(cond) {
		return in
	}
	switch x := in.(type) {
	case *Union:
		return &Union{
			L: pushSelect(CloneCond(cond), x.L, res),
			R: pushSelect(cond, x.R, res),
		}
	case *Diff:
		return &Diff{
			L: pushSelect(CloneCond(cond), x.L, res),
			R: pushSelect(cond, x.R, res),
		}
	case *Project:
		// σ_c(π_Z(E)) → π_Z(σ_c(E)) needs c's attributes to exist in E:
		// when the projection is empty by the paper's convention
		// (Z ⊄ attr(E)), the pushed selection would not validate, so the
		// rewrite only fires when the resolver proves the input covers c.
		if res != nil {
			if ia, err := Attrs(x.Input, res); err == nil && CondAttrs(cond).SubsetOf(ia) {
				return &Project{
					Input: pushSelect(cond, x.Input, res),
					Attrs: append([]string(nil), x.Attrs...),
				}
			}
		}
		return &Select{Input: in, Cond: cond}
	case *Rename:
		inverse := make(map[string]string, len(x.Mapping))
		for from, to := range x.Mapping {
			inverse[to] = from
		}
		m := make(map[string]string, len(x.Mapping))
		for k, v := range x.Mapping {
			m[k] = v
		}
		return &Rename{
			Input:   pushSelect(RenameCondAttrs(cond, inverse), x.Input, res),
			Mapping: m,
		}
	case *Select:
		// Merge and retry as a single conjunction.
		return pushSelect(AndAll(x.Cond, cond), x.Input, res)
	case *Join:
		if res == nil {
			return &Select{Input: in, Cond: cond}
		}
		attrs := make([]relation.AttrSet, len(x.Inputs))
		for i, input := range x.Inputs {
			a, err := Attrs(input, res)
			if err != nil {
				return &Select{Input: in, Cond: cond}
			}
			attrs[i] = a
		}
		var remaining []Cond
		pushed := make([][]Cond, len(x.Inputs))
		for _, c := range Conjuncts(cond) {
			ca := CondAttrs(c)
			sunk := false
			for i := range x.Inputs {
				if ca.SubsetOf(attrs[i]) {
					pushed[i] = append(pushed[i], CloneCond(c))
					sunk = true
					// A conjunct is pushed into *every* covering input:
					// filtering early on each side is sound for natural
					// joins (shared attributes agree) and prunes more.
				}
			}
			if !sunk {
				remaining = append(remaining, c)
			}
		}
		ins := make([]Expr, len(x.Inputs))
		for i, input := range x.Inputs {
			if len(pushed[i]) > 0 {
				ins[i] = pushSelect(AndAll(pushed[i]...), input, res)
			} else {
				ins[i] = input
			}
		}
		var out Expr = &Join{Inputs: ins}
		if len(remaining) > 0 {
			out = &Select{Input: out, Cond: AndAll(remaining...)}
		}
		return out
	case *Empty:
		return Clone(x)
	case *Base:
		// A selection cannot sink below a base scan.
		return &Select{Input: in, Cond: cond}
	default:
		return &Select{Input: in, Cond: cond}
	}
}

// pushProject sinks π_Z into the (already optimized) input.
func pushProject(attrs []string, in Expr, res Resolver) Expr {
	z := relation.NewAttrSet(attrs...)
	switch x := in.(type) {
	case *Union:
		return &Union{
			L: pushProject(append([]string(nil), attrs...), x.L, res),
			R: pushProject(attrs, x.R, res),
		}
	case *Project:
		// π_Z(π_Y(E)) → π_Z(E) only when the inner projection is genuine
		// (Y ⊆ attr(E)); otherwise the whole expression is empty by the
		// paper's convention and collapsing would change semantics.
		inner := relation.NewAttrSet(x.Attrs...)
		if z.SubsetOf(inner) && res != nil {
			if ia, err := Attrs(x.Input, res); err == nil && inner.SubsetOf(ia) {
				return pushProject(attrs, x.Input, res)
			}
		}
		return &Project{Input: in, Attrs: attrs}
	case *Join:
		if res == nil {
			return &Project{Input: in, Attrs: attrs}
		}
		inAttrs := make([]relation.AttrSet, len(x.Inputs))
		shared := relation.NewAttrSet()
		seen := relation.NewAttrSet()
		for i, input := range x.Inputs {
			a, err := Attrs(input, res)
			if err != nil {
				return &Project{Input: in, Attrs: attrs}
			}
			inAttrs[i] = a
			shared = shared.Union(a.Intersect(seen))
			seen = seen.Union(a)
		}
		if !z.SubsetOf(seen) {
			// Projection outside the join's attributes: empty by
			// convention; leave for Simplify.
			return &Project{Input: in, Attrs: attrs}
		}
		keep := z.Union(shared)
		ins := make([]Expr, len(x.Inputs))
		narrowed := false
		for i, input := range x.Inputs {
			want := keep.Intersect(inAttrs[i])
			if want.Len() < inAttrs[i].Len() && want.Len() > 0 {
				ins[i] = pushProject(want.Sorted(), input, res)
				narrowed = true
			} else {
				ins[i] = input
			}
		}
		if !narrowed {
			return &Project{Input: in, Attrs: attrs}
		}
		return &Project{Input: &Join{Inputs: ins}, Attrs: attrs}
	case *Empty:
		return NewEmptySet(z)
	default:
		return &Project{Input: in, Attrs: attrs}
	}
}
