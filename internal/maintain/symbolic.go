package maintain

import (
	"fmt"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
)

// This file derives maintenance expressions symbolically, reproducing
// Example 4.1: given a view definition and the shape of an update (which
// relations receive insertions/deletions), it produces algebra expressions
// for the view's insert- and delete-sets in terms of the base relations
// and the update's delta relations — and, after inverse substitution, in
// terms of warehouse relations and delta relations only.

// InsName returns the name of the insert-delta relation for a base
// relation (the paper's "s" in Example 4.1 is InsName("Sale")).
func InsName(base string) string { return "Δ+" + base }

// DelName returns the name of the delete-delta relation for a base
// relation.
func DelName(base string) string { return "Δ-" + base }

// Shape describes which delta relations an update class provides; the
// derivation replaces the others by the empty relation, so the resulting
// expressions collapse to the paper's per-update-kind maintenance
// expressions.
type Shape struct {
	Ins map[string]bool
	Del map[string]bool
}

// InsertionsInto returns the shape of an update inserting into the given
// relations only.
func InsertionsInto(bases ...string) Shape {
	s := Shape{Ins: map[string]bool{}, Del: map[string]bool{}}
	for _, b := range bases {
		s.Ins[b] = true
	}
	return s
}

// DeletionsFrom returns the shape of an update deleting from the given
// relations only.
func DeletionsFrom(bases ...string) Shape {
	s := Shape{Ins: map[string]bool{}, Del: map[string]bool{}}
	for _, b := range bases {
		s.Del[b] = true
	}
	return s
}

// MaintenanceExprs is a symbolically derived maintenance program for one
// warehouse relation: new value = (old ∖ Del) ∪ Ins, where Ins/Del are
// expressions over base relations (or warehouse relations, after
// TranslateToWarehouse) plus delta relations.
type MaintenanceExprs struct {
	// Target is the maintained warehouse relation's name.
	Target string
	// Ins and Del define the insert- and delete-sets.
	Ins, Del algebra.Expr
}

// String renders the program in the style of Example 4.1.
func (m MaintenanceExprs) String() string {
	return fmt.Sprintf("%s' = (%s ∖ [%s]) ∪ [%s]", m.Target, m.Target, m.Del, m.Ins)
}

// DeltaResolver returns the name space for symbolic maintenance
// expressions over the sources: all base relations plus their delta
// relations (each with the base's attribute set).
func DeltaResolver(db *catalog.Database) algebra.MapResolver {
	m := make(algebra.MapResolver)
	for _, name := range db.Names() {
		sc, _ := db.Schema(name)
		m[name] = sc.AttrSet()
		m[InsName(name)] = sc.AttrSet()
		m[DelName(name)] = sc.AttrSet()
	}
	return m
}

// Derive produces the maintenance expressions for target = e under update
// shape s, simplified against db's delta resolver. They derive the same
// sets as the runtime Propagate; the runtime takes structural shortcuts this
// derivation does not. Exact (not over-approximations) under delete-then-insert.
func Derive(target string, e algebra.Expr, s Shape, db *catalog.Database) (MaintenanceExprs, error) {
	res := DeltaResolver(db)
	if _, err := algebra.Attrs(e, db); err != nil {
		return MaintenanceExprs{}, fmt.Errorf("maintain: cannot derive maintenance for invalid expression: %w", err)
	}
	sym := symbolic(e, s, db)
	return MaintenanceExprs{
		Target: target,
		Ins:    algebra.Simplify(sym.ins, res),
		Del:    algebra.Simplify(sym.del, res),
	}, nil
}

// TranslateToWarehouse substitutes every base-relation reference in the
// maintenance expressions by its inverse over warehouse names, yielding
// the paper's final, warehouse-only maintenance expressions of Example
// 4.1. Delta relations are left untouched (they are the reported update).
func TranslateToWarehouse(m MaintenanceExprs, comp *core.Complement) MaintenanceExprs {
	inv := comp.InverseMap()
	res := warehouseDeltaResolver(comp)
	return MaintenanceExprs{
		Target: m.Target,
		Ins:    algebra.Simplify(algebra.Substitute(m.Ins, inv), res),
		Del:    algebra.Simplify(algebra.Substitute(m.Del, inv), res),
	}
}

// warehouseDeltaResolver is the warehouse name space plus delta names.
func warehouseDeltaResolver(comp *core.Complement) algebra.MapResolver {
	m := comp.Resolver()
	db := comp.Database()
	for _, name := range db.Names() {
		sc, _ := db.Schema(name)
		m[InsName(name)] = sc.AttrSet()
		m[DelName(name)] = sc.AttrSet()
	}
	return m
}

// symNode carries the four expressions tracked per subexpression.
type symNode struct {
	old, new, ins, del algebra.Expr
}

// symbolic mirrors the runtime propagation rules at the expression level.
func symbolic(e algebra.Expr, s Shape, db *catalog.Database) symNode {
	switch x := e.(type) {
	case *algebra.Base:
		sc, _ := db.Schema(x.Name)
		attrs := sc.AttrSet()
		var ins, del algebra.Expr
		if s.Ins[x.Name] {
			ins = algebra.NewBase(InsName(x.Name))
		} else {
			ins = algebra.NewEmptySet(attrs)
		}
		if s.Del[x.Name] {
			del = algebra.NewBase(DelName(x.Name))
		} else {
			del = algebra.NewEmptySet(attrs)
		}
		old := algebra.NewBase(x.Name)
		return symNode{
			old: old,
			new: algebra.NewUnion(algebra.NewDiff(algebra.Clone(old), algebra.Clone(del)), algebra.Clone(ins)),
			ins: ins,
			del: del,
		}

	case *algebra.Empty:
		em := algebra.Clone(x)
		return symNode{old: em, new: algebra.Clone(em), ins: algebra.Clone(em), del: algebra.Clone(em)}

	case *algebra.Select:
		in := symbolic(x.Input, s, db)
		wrap := func(e algebra.Expr) algebra.Expr {
			return algebra.NewSelect(e, algebra.CloneCond(x.Cond))
		}
		return symNode{old: wrap(in.old), new: wrap(in.new), ins: wrap(in.ins), del: wrap(in.del)}

	case *algebra.Project:
		in := symbolic(x.Input, s, db)
		proj := func(e algebra.Expr) algebra.Expr { return algebra.NewProject(e, x.Attrs...) }
		del := proj(in.del)
		// ins = π(insIn) ∪ (π(delIn) ∩ π(newIn)), with a ∩ b = a ∖ (a ∖ b).
		ins := algebra.NewUnion(proj(in.ins), intersectExpr(proj(algebra.Clone(in.del)), proj(in.new)))
		return symNode{old: proj(in.old), new: proj(algebra.Clone(in.new)), ins: ins, del: del}

	case *algebra.Join:
		acc := symbolic(x.Inputs[0], s, db)
		for _, input := range x.Inputs[1:] {
			r := symbolic(input, s, db)
			acc = symNode{
				old: algebra.NewJoin(acc.old, r.old),
				new: algebra.NewJoin(acc.new, r.new),
				del: algebra.NewUnion(
					algebra.NewJoin(acc.del, algebra.Clone(r.old)),
					algebra.NewJoin(algebra.Clone(acc.old), r.del)),
				ins: algebra.NewUnion(
					algebra.NewJoin(acc.ins, algebra.Clone(r.new)),
					algebra.NewJoin(algebra.Clone(acc.new), r.ins)),
			}
		}
		return acc

	case *algebra.Union:
		l := symbolic(x.L, s, db)
		r := symbolic(x.R, s, db)
		// ins = insL ∪ insR ∪ (delL ∩ newR) ∪ (delR ∩ newL), the runtime rule.
		ins := algebra.NewUnion(
			algebra.NewUnion(l.ins, r.ins),
			algebra.NewUnion(
				intersectExpr(algebra.Clone(l.del), algebra.Clone(r.new)),
				intersectExpr(algebra.Clone(r.del), algebra.Clone(l.new))))
		return symNode{
			old: algebra.NewUnion(l.old, r.old),
			new: algebra.NewUnion(l.new, r.new),
			ins: ins,
			del: algebra.NewUnion(l.del, r.del),
		}

	case *algebra.Diff:
		l := symbolic(x.L, s, db)
		r := symbolic(x.R, s, db)
		del := algebra.NewUnion(l.del, r.ins)
		cand := algebra.NewUnion(l.ins, r.del)
		ins := algebra.NewDiff(intersectExpr(cand, algebra.Clone(l.new)), algebra.Clone(r.new))
		return symNode{
			old: algebra.NewDiff(l.old, r.old),
			new: algebra.NewDiff(l.new, r.new),
			ins: ins,
			del: del,
		}

	case *algebra.Rename:
		in := symbolic(x.Input, s, db)
		wrap := func(e algebra.Expr) algebra.Expr { return algebra.NewRename(e, x.Mapping) }
		return symNode{old: wrap(in.old), new: wrap(in.new), ins: wrap(in.ins), del: wrap(in.del)}

	default:
		panic(fmt.Sprintf("maintain: unknown node %T", e))
	}
}

// intersectExpr encodes a ∩ b as a ∖ (a ∖ b) (the algebra has no
// intersection primitive, matching the paper's operator set).
func intersectExpr(a, b algebra.Expr) algebra.Expr {
	return algebra.NewDiff(a, algebra.NewDiff(algebra.Clone(a), b))
}

// EvalMaintenance evaluates derived maintenance expressions against a
// state extended with the update's delta relations, returning the
// resulting Delta. The state may be real or virtual; with a warehouse-
// translated program and a warehouse state this is a fully independent
// evaluation path, used to cross-check the runtime propagation.
func EvalMaintenance(m MaintenanceExprs, st algebra.State, u *catalog.Update, db *catalog.Database) (Delta, error) {
	ext := newDeltaState(st, u, newDeltaBases)
	// A derived program may name a delta relation the update leaves empty.
	for _, b := range db.Names() {
		sc, _ := db.Schema(b)
		for _, name := range [2]string{InsName(b), DelName(b)} {
			if _, ok := ext.deltas[name]; !ok {
				ext.deltas[name] = relation.NewFromSchema(sc)
			}
		}
	}
	ins, err := algebra.EvalCtx(nil, m.Ins, ext)
	if err != nil {
		return Delta{}, err
	}
	del, err := algebra.EvalCtx(nil, m.Del, ext)
	if err != nil {
		return Delta{}, err
	}
	return Delta{Ins: ins, Del: del}, nil
}

// deltaState is w + Δ: a state overlaid with the delta relations of an
// update, Δ⁺R under InsName(R) and Δ⁻R under DelName(R).
type deltaState struct {
	base   algebra.State
	deltas map[string]*relation.Relation
}

func newDeltaState(base algebra.State, u *catalog.Update, refs func(string) *deltaBases) deltaState {
	d := deltaState{base: base, deltas: make(map[string]*relation.Relation)}
	for _, b := range u.Touched() {
		if r := u.Inserts(b); r != nil {
			d.deltas[refs(b)[0].Name] = r
		}
		if r := u.Deletes(b); r != nil {
			d.deltas[refs(b)[1].Name] = r
		}
	}
	return d
}

// deltaBases are the references to a base relation's delta relations in
// w + Δ: Δ⁺ under InsName, Δ⁻ under DelName. Expressions are never written,
// so a maintainer makes them once per base.
type deltaBases [2]*algebra.Base

func newDeltaBases(base string) *deltaBases {
	return &deltaBases{algebra.NewBase(InsName(base)), algebra.NewBase(DelName(base))}
}

// Relation implements algebra.State.
func (d deltaState) Relation(name string) (*relation.Relation, bool) {
	if r, ok := d.deltas[name]; ok {
		return r, true
	}
	return d.base.Relation(name)
}
