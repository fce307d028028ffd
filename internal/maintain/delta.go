// Package maintain implements incremental view maintenance for the
// reproduction: delta propagation through arbitrary algebra expressions
// (in the tradition of Blakeley et al. and Griffin/Libkin, the algorithms
// the paper plugs in, Section 4), the virtual pre-state that answers every
// base-relation reference through the warehouse inverse W⁻¹ — which is
// precisely the paper's "replace any reference to a base relation by its
// inverse" — the update-independent warehouse refresh w' = W(u(W⁻¹(w)))
// (Theorem 4.1), symbolic maintenance-expression derivation (Example 4.1),
// and the σ-view translator showing update independence without a
// complement (end of Section 4).
package maintain

import (
	"cmp"
	"fmt"
	"slices"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
)

// Delta is a change set against a relation-valued expression. Its
// semantics are "delete Del, then insert Ins": the new value is
// (old ∖ Del) ∪ Ins. Ins and Del may overlap (Ins wins); this convention
// makes the propagation rules compositional without per-node
// renormalization.
type Delta struct {
	Ins, Del *relation.Relation
}

// IsEmpty reports whether the delta changes nothing.
func (d Delta) IsEmpty() bool { return d.Ins.IsEmpty() && d.Del.IsEmpty() }

// Size returns the number of changed tuples (insertions + deletions).
func (d Delta) Size() int { return d.Ins.Len() + d.Del.Len() }

// Exact returns the semantically equivalent delta normalized against the
// pre-state relation: every deletion is actually present, every insertion
// actually absent, and the two sets are disjoint. Consumers that keep
// running counters (package aggregate) need exact deltas; ApplyTo works
// with either form. A side that is exact already is returned as it is,
// shared with d.
func (d Delta) Exact(pre *relation.Relation) Delta {
	del, err := keep(d.Del, pre, true, d.Ins)
	if err == nil {
		var ins *relation.Relation
		if ins, err = keep(d.Ins, pre, false, nil); err == nil {
			return Delta{Ins: cmp.Or(ins, d.Ins), Del: cmp.Or(del, d.Del)}
		}
	}
	panic(fmt.Sprintf("maintain: delta does not fit its relation: %v", err))
}

// ApplyTo mutates the materialized relation: deletions first, then
// insertions, aligning columns by name.
func (d Delta) ApplyTo(r *relation.Relation) { r.Apply(d.Del, d.Ins) }

// node is the per-subexpression result of propagation: the delta, computed
// eagerly (deltas are small), and two expressions denoting the
// subexpression's pre- and post-state values over w + Δ — the state the
// update is propagated against, overlaid with the update's delta relations.
// The rules never compute those values themselves; the few they consult are
// read through algebra's evaluator (propagation.read), almost always under
// a probe, so an unchanged join is never recomputed just because a sibling
// changed — this is what makes the incremental path genuinely cheaper than
// recomputation (experiment E12).
type node struct {
	d        Delta
	old, new algebra.Expr
}

// attrs is the subexpression's attribute order.
func (n *node) attrs() []string { return n.d.Ins.Attrs() }

// propagation is one Propagate call (one refresh, for the maintainer): the
// update, the state w + Δ that the nodes' old/new expressions are evaluated
// against, when base references resolve through W⁻¹ the VirtualState that
// says how, the contained differences, and the nodes built so far by
// expression node (shared: no rule writes a delta it did not allocate).
type propagation struct {
	u         *catalog.Update
	st        deltaState
	vst       *VirtualState
	contained map[*algebra.Diff]bool
	memo      map[algebra.Expr]*node
}

// read evaluates e, a node's old or new expression: in full when probe is
// nil, and otherwise under the restricted-value contract of
// algebra.EvalRestricted — the result agrees with the full value on every
// tuple whose projection onto probe's attributes occurs in probe, other
// tuples may or may not appear, so the rules only draw conclusions about
// probe-matching tuples (they always intersect or join against such
// candidates). This is what keeps incremental maintenance delta-driven: a
// small delta probes the big join instead of forcing it.
func (p *propagation) read(e algebra.Expr, probe *relation.Relation) (*relation.Relation, error) {
	var ec *algebra.EvalContext
	if p.vst != nil {
		ec = p.vst.ec
		p.vst.countRead(probe)
	}
	return algebra.EvalRestricted(ec, e, p.st, probe)
}

// Propagate computes the delta of expression e caused by update u, reading
// pre-state values from st only where the delta rules require them. When
// st is a VirtualState backed by a warehouse, every base reference is
// replaced by its inverse and the computation never touches the sources —
// this is the maintenance path of Theorem 4.1. The update must be
// normalized against the same pre-state (every insertion absent, every
// deletion present): the rule for a contained difference relies on it.
func Propagate(e algebra.Expr, st algebra.State, u *catalog.Update) (Delta, error) {
	p := newPropagation(st, u, make(map[*algebra.Diff]bool))
	markContained(e, p, p.contained)
	n, err := p.propagate(e)
	if err != nil {
		return Delta{}, err
	}
	return n.d, nil
}

func newPropagation(st algebra.State, u *catalog.Update, contained map[*algebra.Diff]bool) *propagation {
	p := &propagation{u: u, contained: contained, memo: make(map[algebra.Expr]*node)}
	if vst, ok := st.(*VirtualState); ok {
		p.vst, st = vst, vst.w
	}
	p.st = newDeltaState(st, u, p.deltaBases)
	return p
}

// deltaBases returns the references to the delta relations of base.
func (p *propagation) deltaBases(base string) *deltaBases {
	if p.vst != nil {
		if d := p.vst.deltas[base]; d != nil {
			return d
		}
	}
	return newDeltaBases(base)
}

// BaseAttrs implements algebra.Resolver over the pre-state's relations.
func (p *propagation) BaseAttrs(name string) (relation.AttrSet, bool) {
	_, attrs, err := p.leaf(&algebra.Base{Name: name})
	return relation.NewAttrSet(attrs...), err == nil
}

// leaf returns the expression for base relation name's pre-state value
// over p.st, and its attribute order: the inverse W⁻¹ under a VirtualState,
// the stored relation itself over a plain state.
func (p *propagation) leaf(x *algebra.Base) (algebra.Expr, []string, error) {
	if p.vst != nil {
		if inv, ok := p.vst.inverses[x.Name]; ok {
			return inv, p.vst.attrs[x.Name], nil
		}
	} else if r, ok := p.st.Relation(x.Name); ok {
		return x, r.Attrs(), nil
	}
	return nil, nil, fmt.Errorf("maintain: pre-state has no relation %q", x.Name)
}

// propagate returns e's node, which derive builds once per expression node
// by applying its delta rule to its propagated inputs.
func (p *propagation) propagate(e algebra.Expr) (n *node, err error) {
	if n, ok := p.memo[e]; ok {
		return n, nil
	}
	if n, err = p.derive(e); err == nil {
		p.memo[e] = n
	}
	return n, err
}

func (p *propagation) derive(e algebra.Expr) (*node, error) {
	switch x := e.(type) {
	case *algebra.Base:
		old, attrs, err := p.leaf(x)
		if err != nil {
			return nil, err
		}
		// new = (old ∖ Δ⁻) ∪ Δ⁺ over the overlaid delta relations, each
		// operator only where that side of the update has tuples.
		n := &node{d: Delta{Ins: p.u.Inserts(x.Name), Del: p.u.Deletes(x.Name)}, old: old, new: old}
		if !n.d.Del.IsEmpty() {
			n.new = algebra.NewDiff(n.new, p.deltaBases(x.Name)[1])
		}
		if !n.d.Ins.IsEmpty() {
			n.new = algebra.NewUnion(n.new, p.deltaBases(x.Name)[0])
		}
		if n.d.Ins == nil || n.d.Del == nil {
			none := relation.New(attrs...)
			n.d.Ins, n.d.Del = cmp.Or(n.d.Ins, none), cmp.Or(n.d.Del, none)
		}
		return n, nil

	case *algebra.Empty:
		none := relation.New(x.Attrs...)
		return &node{d: Delta{Ins: none, Del: none}, old: x, new: x}, nil

	case *algebra.Select:
		in, err := p.propagate(x.Input)
		if err != nil {
			return nil, err
		}
		// A delta is read only: one σ keeps whole is shared, not copied, and
		// one it drops whole costs no output of its own rows.
		sel := func(r *relation.Relation) *relation.Relation {
			switch relation.Count(r, func(row relation.Row) bool { return algebra.EvalCond(x.Cond, row) }) {
			case r.Len():
				return r
			case 0:
				return relation.EmptyOf(r)
			}
			return algebra.SelectCond(r, x.Cond, nil)
		}
		return &node{
			d:   Delta{Ins: sel(in.d.Ins), Del: sel(in.d.Del)},
			old: algebra.NewSelect(in.old, x.Cond),
			new: algebra.NewSelect(in.new, x.Cond),
		}, nil

	case *algebra.Project:
		in, err := p.propagate(x.Input)
		if err != nil {
			return nil, err
		}
		oldE, newE := &algebra.Project{Input: in.old, Attrs: x.Attrs}, &algebra.Project{Input: in.new, Attrs: x.Attrs}
		if len(x.Attrs) == len(in.attrs()) && !slices.ContainsFunc(x.Attrs, func(a string) bool { return !in.d.Ins.HasAttr(a) }) {
			return &node{d: in.d, old: oldE, new: newE}, nil // π onto every attribute loses none
		}
		if in.d.IsEmpty() {
			none := relation.New(x.Attrs...)
			return &node{d: Delta{Ins: none, Del: none}, old: oldE, new: newE}, nil
		}
		del := relation.Project(in.d.Del, x.Attrs...)
		ins := relation.Project(in.d.Ins, x.Attrs...)
		// Deleted projections still derivable from the new state must be
		// re-inserted (set semantics under projection). The check probes
		// the input's new value with the deleted tuples instead of forcing
		// it, and only when something was deleted. ins is the projection's
		// own fresh relation: the input's delta is only read.
		if !del.IsEmpty() {
			nv, err := p.read(in.new, del)
			if err != nil {
				return nil, err
			}
			still, err := relation.Intersect(del, relation.Project(nv, x.Attrs...))
			if err != nil {
				return nil, err
			}
			ins.InsertAll(still)
		}
		return &node{d: Delta{Ins: ins, Del: del}, old: oldE, new: newE}, nil

	case *algebra.Join:
		if len(x.Inputs) == 0 {
			return nil, fmt.Errorf("maintain: join of zero inputs")
		}
		acc, err := p.propagate(x.Inputs[0])
		if err != nil {
			return nil, err
		}
		for _, input := range x.Inputs[1:] {
			r, err := p.propagate(input)
			if err != nil {
				return nil, err
			}
			acc, err = p.joinNodes(acc, r)
			if err != nil {
				return nil, err
			}
		}
		return acc, nil

	case *algebra.Union:
		l, r, err := p.propagateSides(x.L, x.R)
		if err != nil {
			return nil, err
		}
		del, err := union(l.d.Del, r.d.Del)
		if err != nil {
			return nil, err
		}
		ins, err := union(l.d.Ins, r.d.Ins)
		if err != nil {
			return nil, err
		}
		// A tuple deleted from one side may survive in the other: the
		// delete-then-insert convention handles it by re-insertion. What a
		// side deletes and does not re-insert is absent from its own new
		// value, so each side's deletions probe only the other side's new
		// value, and a side that deletes nothing costs no read.
		for _, s := range [2]struct {
			del   *relation.Relation
			other algebra.Expr
		}{{l.d.Del, r.new}, {r.d.Del, l.new}} {
			if s.del.IsEmpty() {
				continue
			}
			nv, err := p.read(s.other, s.del)
			if err != nil {
				return nil, err
			}
			still, err := relation.Intersect(s.del, nv)
			if err != nil {
				return nil, err
			}
			if ins, err = union(ins, still); err != nil {
				return nil, err
			}
		}
		n := &node{
			d:   Delta{Ins: ins, Del: del},
			old: algebra.NewUnion(l.old, r.old),
			new: algebra.NewUnion(l.new, r.new),
		}
		return n, nil

	case *algebra.Diff:
		l, r, err := p.propagateSides(x.L, x.R)
		if err != nil {
			return nil, err
		}
		del, err := union(l.d.Del, r.d.Ins)
		if err != nil {
			return nil, err
		}
		var ins *relation.Relation
		if p.contained[x] {
			ins = containedDiffIns(l.d, r.d)
		} else if ins, err = p.diffIns(l, r); err != nil {
			return nil, err
		}
		return &node{
			d:   Delta{Ins: ins, Del: del},
			old: algebra.NewDiff(l.old, r.old),
			new: algebra.NewDiff(l.new, r.new),
		}, nil

	case *algebra.Rename:
		in, err := p.propagate(x.Input)
		if err != nil {
			return nil, err
		}
		ins, err := relation.Rename(in.d.Ins, x.Mapping)
		if err != nil {
			return nil, err
		}
		del, err := relation.Rename(in.d.Del, x.Mapping)
		if err != nil {
			return nil, err
		}
		return &node{
			d:   Delta{Ins: ins, Del: del},
			old: &algebra.Rename{Input: in.old, Mapping: x.Mapping},
			new: &algebra.Rename{Input: in.new, Mapping: x.Mapping},
		}, nil

	default:
		panic(fmt.Sprintf("maintain: unknown node %T", e))
	}
}

// diffIns is the read-based insert set of a difference L ∖ R,
// ((ΔL⁺ ∪ ΔR⁻) ∩ newL) ∖ newR: membership of the few candidates is all that
// matters, so both new values are read under them, and only if there are any.
func (p *propagation) diffIns(l, r *node) (*relation.Relation, error) {
	cand, err := union(l.d.Ins, r.d.Del)
	if err != nil || cand.IsEmpty() {
		return cand, err
	}
	lNew, err := p.read(l.new, cand)
	if err != nil {
		return nil, err
	}
	rNew, err := p.read(r.new, cand)
	if err != nil {
		return nil, err
	}
	kept, err := relation.Intersect(cand, lNew)
	if err != nil {
		return nil, err
	}
	return relation.Diff(kept, rNew)
}

// containedDiffIns is the insert set of a contained difference L ∖ R under a
// normalized update, from the deltas alone (soundness: DESIGN §5 "Delta
// rules"): ins = (ΔL⁺ ∪ (ΔR⁻ ∖ (ΔL⁻ ∖ ΔL⁺))) ∖ ΔR⁺ — ΔL⁺ itself where
// nothing else enters.
func containedDiffIns(l, r Delta) *relation.Relation {
	ins, err := relation.Keep(l.Ins, r.Ins, false)
	if err == nil && !r.Del.IsEmpty() {
		var back, gone *relation.Relation
		if back, err = relation.Keep(r.Del, r.Ins, false); err == nil {
			if gone, err = relation.Keep(l.Del, l.Ins, false); err == nil {
				if back, err = relation.Keep(back, gone, false); err == nil && !back.IsEmpty() {
					ins, err = union(ins, back)
				}
			}
		}
	}
	if err != nil {
		panic(fmt.Sprintf("maintain: the sides of a difference differ: %v", err))
	}
	return ins
}

// union is a ∪ b, one of them itself when the other is empty: deltas are
// read only.
func union(a, b *relation.Relation) (*relation.Relation, error) {
	switch {
	case b.IsEmpty() && relation.SameAttrs(a, b):
		return a, nil
	case a.IsEmpty() && relation.SameAttrs(a, b):
		return b, nil
	}
	return relation.Union(a, b)
}

// markContained marks the contained differences of e: L ∖ R, L a base relation,
// R free of ∖ and ρ and contained in L in every state, as R ∖ π_R(V) is.
func markContained(e algebra.Expr, res algebra.Resolver, marks map[*algebra.Diff]bool) {
	algebra.Walk(e, func(n algebra.Expr) {
		if d, ok := n.(*algebra.Diff); ok {
			if l, ok := d.L.(*algebra.Base); ok {
				attrs, _ := res.BaseAttrs(l.Name)
				marks[d] = contained(d.R, l.Name, attrs)
				algebra.Walk(d.R, func(n algebra.Expr) {
					switch n.(type) {
					case *algebra.Diff, *algebra.Rename:
						marks[d] = false
					}
				})
			}
		}
	})
}

// contained reports whether π_attrs(e) ⊆ base by e's structure: e is base, a
// σ of a contained input, a π keeping attrs of one, a ⋈ with one, a ∪ of two.
func contained(e algebra.Expr, base string, attrs relation.AttrSet) bool {
	switch x := e.(type) {
	case *algebra.Base:
		return x.Name == base
	case *algebra.Select:
		return contained(x.Input, base, attrs)
	case *algebra.Project:
		return attrs.SubsetOf(relation.NewAttrSet(x.Attrs...)) && contained(x.Input, base, attrs)
	case *algebra.Join:
		return slices.ContainsFunc(x.Inputs, func(in algebra.Expr) bool { return contained(in, base, attrs) })
	case *algebra.Union:
		return contained(x.L, base, attrs) && contained(x.R, base, attrs)
	}
	return false
}

func (p *propagation) propagateSides(le, re algebra.Expr) (l, r *node, err error) {
	if l, err = p.propagate(le); err == nil {
		r, err = p.propagate(re)
	}
	return l, r, err
}

// joinNodes combines two propagated inputs through a natural join:
//
//	Δ⁻ = (ΔL⁻ ⋈ oldR) ∪ (oldL ⋈ ΔR⁻)
//	Δ⁺ = (ΔL⁺ ⋈ newR) ∪ (newL ⋈ ΔR⁺)
//
// exact under the delete-then-insert convention. Each term reads the
// sibling's old/new only when its delta side is non-empty, so joins whose
// inputs did not change cost nothing.
func (p *propagation) joinNodes(l, r *node) (*node, error) {
	joinTerm := func(delta *relation.Relation, other *node, value algebra.Expr) (*relation.Relation, error) {
		if delta.IsEmpty() {
			return nil, nil
		}
		// Only the sibling tuples matching the delta on the shared
		// attributes can join: probe instead of forcing the sibling (in
		// full only for a Cartesian product, where nothing is shared).
		var probe *relation.Relation
		if shared := relation.SharedAttrs(delta.Attrs(), other.attrs()); len(shared) > 0 {
			probe = relation.Project(delta, shared...)
		}
		sibling, err := p.read(value, probe)
		if err != nil {
			return nil, err
		}
		return relation.NaturalJoin(delta, sibling), nil
	}
	combine := func(a, b *relation.Relation) (*relation.Relation, error) {
		switch {
		case a == nil && b == nil:
			return relation.New(relation.NewAttrSet(l.attrs()...).Union(relation.NewAttrSet(r.attrs()...)).Sorted()...), nil
		case a == nil:
			return b, nil
		case b == nil:
			return a, nil
		default:
			return union(a, b)
		}
	}

	del1, err := joinTerm(l.d.Del, r, r.old)
	if err != nil {
		return nil, err
	}
	del2, err := joinTerm(r.d.Del, l, l.old)
	if err != nil {
		return nil, err
	}
	del, err := combine(del1, del2)
	if err != nil {
		return nil, err
	}
	ins1, err := joinTerm(l.d.Ins, r, r.new)
	if err != nil {
		return nil, err
	}
	ins2, err := joinTerm(r.d.Ins, l, l.new)
	if err != nil {
		return nil, err
	}
	ins, err := combine(ins1, ins2)
	if err != nil {
		return nil, err
	}
	return &node{
		d:   Delta{Ins: ins, Del: del},
		old: algebra.NewJoin(l.old, r.old),
		new: algebra.NewJoin(l.new, r.new),
	}, nil
}

// alignTuple relays tuple t from src's column order into dst's.
func alignTuple(src, dst *relation.Relation, t relation.Tuple) relation.Tuple {
	out := make(relation.Tuple, dst.Arity())
	for i, a := range dst.Attrs() {
		p, ok := src.Pos(a)
		if !ok {
			panic(fmt.Sprintf("maintain: attribute %q missing while aligning tuple", a))
		}
		out[i] = t[p]
	}
	return out
}
