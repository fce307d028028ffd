package algebra

import (
	"fmt"

	"dwcomplement/internal/relation"
)

// Resolver supplies the attribute sets of named relations for static
// analysis. Both the source schema set D and a warehouse definition W act
// as Resolvers.
type Resolver interface {
	// BaseAttrs returns the attribute set of the named relation, and
	// whether the name is known.
	BaseAttrs(name string) (relation.AttrSet, bool)
}

// MapResolver is a Resolver backed by a plain map, convenient in tests and
// for derived (warehouse-level) name spaces.
type MapResolver map[string]relation.AttrSet

// BaseAttrs implements Resolver.
func (m MapResolver) BaseAttrs(name string) (relation.AttrSet, bool) {
	a, ok := m[name]
	return a, ok
}

// State supplies materialized relations for evaluation. Database states
// over D and warehouse states both implement it.
type State interface {
	// Relation returns the named relation's current contents, and whether
	// the name is known. Implementations return live relations; EvalCtx
	// never mutates them.
	Relation(name string) (*relation.Relation, bool)
}

// MapState is a State backed by a plain map.
type MapState map[string]*relation.Relation

// Relation implements State.
func (m MapState) Relation(name string) (*relation.Relation, bool) {
	r, ok := m[name]
	return r, ok
}

// Attrs computes the output attribute set of e under the given resolver
// and statically validates the expression:
//
//   - base references must resolve;
//   - union/difference operands must have equal attribute sets;
//   - selection conditions may only reference input attributes;
//   - renamings must reference existing attributes and stay injective.
//
// Projection onto attributes outside the input is legal and yields that
// attribute set (the paper's empty-relation convention).
func Attrs(e Expr, res Resolver) (relation.AttrSet, error) {
	switch n := e.(type) {
	case *Base:
		a, ok := res.BaseAttrs(n.Name)
		if !ok {
			return nil, fmt.Errorf("algebra: unknown relation %q: %w", n.Name, ErrUnknownRelation)
		}
		return a.Clone(), nil
	case *Empty:
		return relation.NewAttrSet(n.Attrs...), nil
	case *Select:
		in, err := Attrs(n.Input, res)
		if err != nil {
			return nil, err
		}
		if ca := CondAttrs(n.Cond); !ca.SubsetOf(in) {
			return nil, fmt.Errorf("algebra: selection %s references attributes %v outside input %v",
				n.Cond, ca.Minus(in), in)
		}
		return in, nil
	case *Project:
		if _, err := Attrs(n.Input, res); err != nil {
			return nil, err
		}
		if len(n.Attrs) == 0 {
			return nil, fmt.Errorf("algebra: projection onto zero attributes")
		}
		return relation.NewAttrSet(n.Attrs...), nil
	case *Join:
		if len(n.Inputs) == 0 {
			return nil, fmt.Errorf("algebra: join of zero inputs")
		}
		out := relation.NewAttrSet()
		for _, in := range n.Inputs {
			a, err := Attrs(in, res)
			if err != nil {
				return nil, err
			}
			out = out.Union(a)
		}
		return out, nil
	case *Union:
		return binaryAttrs("union", n.L, n.R, res)
	case *Diff:
		return binaryAttrs("difference", n.L, n.R, res)
	case *Rename:
		in, err := Attrs(n.Input, res)
		if err != nil {
			return nil, err
		}
		out := relation.NewAttrSet()
		renamedTo := relation.NewAttrSet()
		for old, new_ := range n.Mapping {
			if !in.Has(old) {
				return nil, fmt.Errorf("algebra: rename of unknown attribute %q", old)
			}
			if renamedTo.Has(new_) {
				return nil, fmt.Errorf("algebra: rename maps two attributes to %q", new_)
			}
			renamedTo[new_] = struct{}{}
		}
		for a := range in {
			name := a
			if n, ok := n.Mapping[a]; ok {
				name = n
			}
			if out.Has(name) {
				return nil, fmt.Errorf("algebra: rename produces duplicate attribute %q", name)
			}
			out[name] = struct{}{}
		}
		return out, nil
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", e))
	}
}

func binaryAttrs(op string, l, r Expr, res Resolver) (relation.AttrSet, error) {
	la, err := Attrs(l, res)
	if err != nil {
		return nil, err
	}
	ra, err := Attrs(r, res)
	if err != nil {
		return nil, err
	}
	if !la.Equal(ra) {
		return nil, fmt.Errorf("algebra: %s requires equal attribute sets, got %v and %v: %w",
			op, la, ra, relation.ErrSchemaMismatch)
	}
	return la, nil
}
