// Package view implements the paper's view layer: PSJ views — relational
// expressions of the form π_Z(σ_c(Ri1 ⋈ … ⋈ Rik)) over the base schemata D
// — together with normalization of general algebra expressions into PSJ
// form, SJ-view detection (projection-free PSJ views, Theorem 2.1), view
// sets with the V_R / V_K / VK^ind classifications of Section 2, and the
// information ordering on view sets (Definition 2.1).
package view

import (
	"fmt"
	"sort"
	"strings"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
)

// PSJ is a named projection–selection–join view π_Proj(σ_Cond(⋈ Bases)).
// Bases are distinct base relation names of D (the natural join of a
// relation with itself equals the relation, so duplicates carry no
// information and are rejected by Validate).
type PSJ struct {
	Name  string
	Proj  []string
	Cond  algebra.Cond
	Bases []string
}

// NewPSJ constructs a PSJ view. A nil cond means the trivial condition.
func NewPSJ(name string, proj []string, cond algebra.Cond, bases ...string) *PSJ {
	if cond == nil {
		cond = algebra.True{}
	}
	return &PSJ{
		Name:  name,
		Proj:  append([]string(nil), proj...),
		Cond:  cond,
		Bases: append([]string(nil), bases...),
	}
}

// ProjSet returns the view's schema Z as an attribute set.
func (v *PSJ) ProjSet() relation.AttrSet { return relation.NewAttrSet(v.Proj...) }

// BaseSet returns the set of base relation names the view joins.
func (v *PSJ) BaseSet() relation.AttrSet { return relation.NewAttrSet(v.Bases...) }

// Involves reports whether the view's definition involves base relation r
// (membership in the paper's V_R).
func (v *PSJ) Involves(r string) bool {
	for _, b := range v.Bases {
		if b == r {
			return true
		}
	}
	return false
}

// Expr returns the view definition as an algebra expression over D,
// omitting trivial selections and identity projections.
func (v *PSJ) Expr() algebra.Expr {
	ins := make([]algebra.Expr, len(v.Bases))
	for i, b := range v.Bases {
		ins[i] = algebra.NewBase(b)
	}
	var e algebra.Expr = algebra.NewJoin(ins...)
	if !algebra.IsTrivial(v.Cond) {
		e = algebra.NewSelect(e, algebra.CloneCond(v.Cond))
	}
	return algebra.NewProject(e, v.Proj...)
}

// JoinAttrs returns the union of the attribute sets of all joined bases.
func (v *PSJ) JoinAttrs(db *catalog.Database) (relation.AttrSet, error) {
	out := relation.NewAttrSet()
	for _, b := range v.Bases {
		sc, ok := db.Schema(b)
		if !ok {
			return nil, fmt.Errorf("view: %s references unknown relation %q: %w", v.Name, b, algebra.ErrUnknownRelation)
		}
		out = out.Union(sc.AttrSet())
	}
	return out, nil
}

// IsSJ reports whether the view is an SJ view over db: a PSJ view whose
// final projection includes all attributes occurring in its joined bases
// (the class for which Proposition 2.2's complement is minimal,
// Theorem 2.1).
func (v *PSJ) IsSJ(db *catalog.Database) (bool, error) {
	all, err := v.JoinAttrs(db)
	if err != nil {
		return false, err
	}
	return v.ProjSet().Equal(all), nil
}

// Validate checks the view against the database: distinct known bases, at
// least one base, projection and condition attributes contained in the
// joined attribute set, and a non-empty projection.
func (v *PSJ) Validate(db *catalog.Database) error {
	if v.Name == "" {
		return fmt.Errorf("view without a name")
	}
	if len(v.Bases) == 0 {
		return fmt.Errorf("view %s joins no relations", v.Name)
	}
	seen := map[string]bool{}
	for _, b := range v.Bases {
		if seen[b] {
			return fmt.Errorf("view %s joins relation %s twice (self-joins carry no information in natural-join PSJ views)", v.Name, b)
		}
		seen[b] = true
	}
	all, err := v.JoinAttrs(db)
	if err != nil {
		return err
	}
	if len(v.Proj) == 0 {
		return fmt.Errorf("view %s projects onto no attributes", v.Name)
	}
	if !v.ProjSet().SubsetOf(all) {
		return fmt.Errorf("view %s projects onto %v outside its joined attributes %v",
			v.Name, v.ProjSet().Minus(all), all)
	}
	if ca := algebra.CondAttrs(v.Cond); !ca.SubsetOf(all) {
		return fmt.Errorf("view %s selection references %v outside its joined attributes %v",
			v.Name, ca.Minus(all), all)
	}
	return nil
}

// EvalCtx materializes the view on a database state under an evaluation
// context, which carries cancellation and per-operator counters through
// the view's expression; ec may be nil.
func (v *PSJ) EvalCtx(ec *algebra.EvalContext, st algebra.State) (*relation.Relation, error) {
	return algebra.EvalCtx(ec, v.Expr(), st)
}

// Clone returns a deep copy.
func (v *PSJ) Clone() *PSJ {
	return &PSJ{
		Name:  v.Name,
		Proj:  append([]string(nil), v.Proj...),
		Cond:  algebra.CloneCond(v.Cond),
		Bases: append([]string(nil), v.Bases...),
	}
}

// String renders "Name = <expr>".
func (v *PSJ) String() string {
	return v.Name + " = " + v.Expr().String()
}

// FromExpr normalizes a general algebra expression into PSJ form when one
// exists. The normalization pulls selections below projections (valid
// because validated selections only mention projected attributes) and
// flattens joins; it accepts joins only between projection-free inputs
// with disjoint base sets, since joining already-projected inputs is not
// expressible as a single PSJ view in general. Union, difference, rename
// and Empty have no PSJ form.
func FromExpr(name string, e algebra.Expr, db *catalog.Database) (*PSJ, error) {
	n, err := normalize(e, db)
	if err != nil {
		return nil, fmt.Errorf("view: %q is not a PSJ view: %w", e, err)
	}
	v := NewPSJ(name, n.proj.Sorted(), n.cond, n.bases...)
	if err := v.Validate(db); err != nil {
		return nil, err
	}
	return v, nil
}

// psjNorm is the intermediate normal form: bases, condition, projection,
// plus whether the projection is still the full joined attribute set.
type psjNorm struct {
	bases []string
	cond  algebra.Cond
	proj  relation.AttrSet
	full  bool
}

func normalize(e algebra.Expr, db *catalog.Database) (*psjNorm, error) {
	switch n := e.(type) {
	case *algebra.Base:
		sc, ok := db.Schema(n.Name)
		if !ok {
			return nil, fmt.Errorf("unknown relation %q: %w", n.Name, algebra.ErrUnknownRelation)
		}
		return &psjNorm{bases: []string{n.Name}, cond: algebra.True{}, proj: sc.AttrSet(), full: true}, nil

	case *algebra.Select:
		in, err := normalize(n.Input, db)
		if err != nil {
			return nil, err
		}
		ca := algebra.CondAttrs(n.Cond)
		if !ca.SubsetOf(in.proj) {
			return nil, fmt.Errorf("selection %s references attributes outside %v", n.Cond, in.proj)
		}
		// σ_c(π_Z(E)) = π_Z(σ_c(E)) whenever attrs(c) ⊆ Z, so the
		// condition is pushed into the PSJ selection slot.
		return &psjNorm{
			bases: in.bases,
			cond:  algebra.AndAll(in.cond, algebra.CloneCond(n.Cond)),
			proj:  in.proj,
			full:  in.full,
		}, nil

	case *algebra.Project:
		in, err := normalize(n.Input, db)
		if err != nil {
			return nil, err
		}
		z := relation.NewAttrSet(n.Attrs...)
		if !z.SubsetOf(in.proj) {
			return nil, fmt.Errorf("projection onto %v not contained in %v", z, in.proj)
		}
		return &psjNorm{bases: in.bases, cond: in.cond, proj: z, full: false}, nil

	case *algebra.Join:
		ins := make([]*psjNorm, len(n.Inputs))
		seen := map[string]bool{}
		for i, input := range n.Inputs {
			in, err := normalize(input, db)
			if err != nil {
				return nil, err
			}
			for _, b := range in.bases {
				if seen[b] {
					return nil, fmt.Errorf("join references relation %s twice", b)
				}
				seen[b] = true
			}
			ins[i] = in
		}
		// A projected join input is foldable into one PSJ only when the
		// attributes it dropped are disjoint from every other input: such
		// attributes neither affect the join nor the final projection, so
		// π can be postponed past the join. A dropped-but-shared attribute
		// would change the join semantics, so that shape is rejected.
		for i, in := range ins {
			if in.full {
				continue
			}
			allAttrs, err := joinAttrsOf(in.bases, db)
			if err != nil {
				return nil, err
			}
			dropped := allAttrs.Minus(in.proj)
			for j, other := range ins {
				if i == j {
					continue
				}
				otherAttrs, err := joinAttrsOf(other.bases, db)
				if err != nil {
					return nil, err
				}
				if !dropped.Intersect(otherAttrs).IsEmpty() {
					return nil, fmt.Errorf("join over input projecting away shared attributes %v has no single PSJ form",
						dropped.Intersect(otherAttrs))
				}
			}
		}
		out := &psjNorm{cond: algebra.True{}, proj: relation.NewAttrSet(), full: true}
		for _, in := range ins {
			out.bases = append(out.bases, in.bases...)
			out.cond = algebra.AndAll(out.cond, in.cond)
			out.proj = out.proj.Union(in.proj)
			out.full = out.full && in.full
		}
		return out, nil

	default:
		return nil, fmt.Errorf("%T nodes have no PSJ form", e)
	}
}

// joinAttrsOf returns the joint attribute set of the named base relations.
func joinAttrsOf(bases []string, db *catalog.Database) (relation.AttrSet, error) {
	out := relation.NewAttrSet()
	for _, b := range bases {
		sc, ok := db.Schema(b)
		if !ok {
			return nil, fmt.Errorf("unknown relation %q: %w", b, algebra.ErrUnknownRelation)
		}
		out = out.Union(sc.AttrSet())
	}
	return out, nil
}

// Set is an ordered collection of uniquely named PSJ views — the paper's
// warehouse definition V = {V1..Vk}.
type Set struct {
	views  []*PSJ
	byName map[string]*PSJ
}

// NewSet builds a view set, validating every view against db and the name
// space (view names must be unique and must not clash with base names).
func NewSet(db *catalog.Database, views ...*PSJ) (*Set, error) {
	s := &Set{byName: make(map[string]*PSJ, len(views))}
	for _, v := range views {
		if err := s.add(db, v); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNewSet is NewSet that panics on error, for fixtures and examples.
func MustNewSet(db *catalog.Database, views ...*PSJ) *Set {
	s, err := NewSet(db, views...)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Set) add(db *catalog.Database, v *PSJ) error {
	if err := v.Validate(db); err != nil {
		return fmt.Errorf("view: %w", err)
	}
	if _, dup := s.byName[v.Name]; dup {
		return fmt.Errorf("view: duplicate view name %q", v.Name)
	}
	if _, clash := db.Schema(v.Name); clash {
		return fmt.Errorf("view: view name %q clashes with a base relation", v.Name)
	}
	s.byName[v.Name] = v
	s.views = append(s.views, v)
	return nil
}

// Views returns the views in declaration order. Callers must not modify
// the returned slice.
func (s *Set) Views() []*PSJ { return s.views }

// Len returns the number of views.
func (s *Set) Len() int { return len(s.views) }

// ByName returns the named view and whether it exists.
func (s *Set) ByName(name string) (*PSJ, bool) {
	v, ok := s.byName[name]
	return v, ok
}

// Names returns the view names in declaration order.
func (s *Set) Names() []string {
	out := make([]string, len(s.views))
	for i, v := range s.views {
		out[i] = v.Name
	}
	return out
}

// Over returns V_R: the views whose definition involves base relation r.
func (s *Set) Over(r string) []*PSJ {
	var out []*PSJ
	for _, v := range s.views {
		if v.Involves(r) {
			out = append(out, v)
		}
	}
	return out
}

// WithKey returns V_K for base relation r with key k: the views of V_R
// whose schema Z contains all of k (Section 2's V_{Kj}).
func (s *Set) WithKey(r string, k relation.AttrSet) []*PSJ {
	var out []*PSJ
	for _, v := range s.Over(r) {
		if k.SubsetOf(v.ProjSet()) {
			out = append(out, v)
		}
	}
	return out
}

// Resolver returns the warehouse-level name space: every view name mapped
// to its schema Z. Extra (complement) relations can be layered on top by
// the warehouse package.
func (s *Set) Resolver() algebra.MapResolver {
	m := make(algebra.MapResolver, len(s.views))
	for _, v := range s.views {
		m[v.Name] = v.ProjSet()
	}
	return m
}

// EvalCtx materializes every view on a database state, keyed by view
// name, under an evaluation context (cancellation + stats); ec may be nil.
func (s *Set) EvalCtx(ec *algebra.EvalContext, st algebra.State) (map[string]*relation.Relation, error) {
	out := make(map[string]*relation.Relation, len(s.views))
	for _, v := range s.views {
		r, err := v.EvalCtx(ec, st)
		if err != nil {
			return nil, err
		}
		out[v.Name] = r
	}
	return out, nil
}

// String lists the view definitions one per line, sorted by name.
func (s *Set) String() string {
	lines := make([]string, len(s.views))
	for i, v := range s.views {
		lines[i] = v.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
