// Package algebra implements the symbolic relational algebra of the paper:
// expressions over a set D of base relation schemata built from base
// references, selection, projection, natural join, union, difference and
// renaming, together with attribute inference, evaluation against database
// states, substitution of base references by expressions (the engine of
// query translation, Theorem 3.1), simplification, and printing in both
// Unicode and a parseable ASCII form.
//
// Expressions are immutable by convention: rewrites return new trees and
// never modify inputs in place.
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"dwcomplement/internal/relation"
)

// Expr is a relational algebra expression. The concrete node types are
// Base, Select, Project, Join, Union, Diff, Rename and Empty.
type Expr interface {
	isExpr()
	// String renders the expression in Unicode mathematical notation.
	String() string
}

// Base references a named relation — a base relation of D, or, after
// translation to warehouse terms, a materialized warehouse view.
type Base struct {
	Name string
}

// Select is σ_Cond(Input).
type Select struct {
	Input Expr
	Cond  Cond
}

// Project is π_Attrs(Input). Following the paper's convention, evaluating a
// projection whose attribute list is not contained in the input's
// attributes yields the empty relation over Attrs.
type Project struct {
	Input Expr
	Attrs []string
}

// Join is the n-ary natural join Input₁ ⋈ … ⋈ Inputₙ (n ≥ 1).
type Join struct {
	Inputs []Expr
}

// Union is L ∪ R; both sides must have equal attribute sets.
type Union struct {
	L, R Expr
}

// Diff is L ∖ R; both sides must have equal attribute sets.
type Diff struct {
	L, R Expr
}

// Rename is ρ_Mapping(Input), renaming attributes old→new (paper footnote
// 3 uses renaming to incorporate general inclusion dependencies).
type Rename struct {
	Input   Expr
	Mapping map[string]string
}

// Empty denotes the constant empty relation over Attrs. It arises from
// static reasoning — e.g. a complement proved empty by referential
// integrity (Example 2.4) is replaced by Empty so that no storage or
// maintenance is spent on it.
type Empty struct {
	Attrs []string
}

func (*Base) isExpr()    {}
func (*Select) isExpr()  {}
func (*Project) isExpr() {}
func (*Join) isExpr()    {}
func (*Union) isExpr()   {}
func (*Diff) isExpr()    {}
func (*Rename) isExpr()  {}
func (*Empty) isExpr()   {}

// Constructor helpers. They perform light normalization (join flattening)
// but no semantic rewriting; use Simplify for that.

// NewBase returns a base reference.
func NewBase(name string) *Base { return &Base{Name: name} }

// NewSelect returns σ_cond(in).
func NewSelect(in Expr, cond Cond) *Select { return &Select{Input: in, Cond: cond} }

// NewProject returns π_attrs(in).
func NewProject(in Expr, attrs ...string) *Project {
	return &Project{Input: in, Attrs: append([]string(nil), attrs...)}
}

// NewProjectSet returns π over the sorted members of the attribute set,
// giving deterministic output for derived expressions.
func NewProjectSet(in Expr, attrs relation.AttrSet) *Project {
	return &Project{Input: in, Attrs: attrs.Sorted()}
}

// NewJoin returns the natural join of the inputs, flattening nested joins.
// It panics on zero inputs; a single input is returned unchanged.
func NewJoin(inputs ...Expr) Expr {
	if len(inputs) == 0 {
		panic("algebra: join of zero inputs")
	}
	flat := make([]Expr, 0, len(inputs))
	for _, in := range inputs {
		if j, ok := in.(*Join); ok {
			flat = append(flat, j.Inputs...)
		} else {
			flat = append(flat, in)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Join{Inputs: flat}
}

// NewUnion returns l ∪ r.
func NewUnion(l, r Expr) *Union { return &Union{L: l, R: r} }

// NewUnionAll folds a non-empty slice into a left-deep union tree.
func NewUnionAll(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		panic("algebra: union of zero inputs")
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = NewUnion(out, e)
	}
	return out
}

// NewDiff returns l ∖ r.
func NewDiff(l, r Expr) *Diff { return &Diff{L: l, R: r} }

// NewRename returns ρ_mapping(in).
func NewRename(in Expr, mapping map[string]string) *Rename {
	m := make(map[string]string, len(mapping))
	for k, v := range mapping {
		m[k] = v
	}
	return &Rename{Input: in, Mapping: m}
}

// NewEmpty returns the empty relation over attrs.
func NewEmpty(attrs ...string) *Empty {
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	return &Empty{Attrs: sorted}
}

// NewEmptySet returns the empty relation over the attribute set.
func NewEmptySet(attrs relation.AttrSet) *Empty { return &Empty{Attrs: attrs.Sorted()} }

// Bases returns the set of base relation names referenced by e.
func Bases(e Expr) relation.AttrSet {
	out := relation.NewAttrSet()
	Walk(e, func(n Expr) {
		if b, ok := n.(*Base); ok {
			out[b.Name] = struct{}{}
		}
	})
	return out
}

// Walk calls fn for e and every descendant, pre-order.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, c := range children(e) {
		Walk(c, fn)
	}
}

// Clone returns a deep copy of e.
func Clone(e Expr) Expr { return Substitute(e, nil) }

// Equal reports structural equality of two expressions. Projection lists
// compare as sets; join inputs compare position-wise (joins are normalized
// by construction order, not commuted).
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *Base:
		y, ok := b.(*Base)
		return ok && x.Name == y.Name
	case *Empty:
		y, ok := b.(*Empty)
		return ok && relation.NewAttrSet(x.Attrs...).Equal(relation.NewAttrSet(y.Attrs...))
	case *Select:
		y, ok := b.(*Select)
		return ok && CondEqual(x.Cond, y.Cond) && Equal(x.Input, y.Input)
	case *Project:
		y, ok := b.(*Project)
		return ok && relation.NewAttrSet(x.Attrs...).Equal(relation.NewAttrSet(y.Attrs...)) && Equal(x.Input, y.Input)
	case *Join:
		y, ok := b.(*Join)
		if !ok || len(x.Inputs) != len(y.Inputs) {
			return false
		}
		for i := range x.Inputs {
			if !Equal(x.Inputs[i], y.Inputs[i]) {
				return false
			}
		}
		return true
	case *Union:
		y, ok := b.(*Union)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Diff:
		y, ok := b.(*Diff)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Rename:
		y, ok := b.(*Rename)
		if !ok || len(x.Mapping) != len(y.Mapping) {
			return false
		}
		for k, v := range x.Mapping {
			if y.Mapping[k] != v {
				return false
			}
		}
		return Equal(x.Input, y.Input)
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", a))
	}
}

// Substitute returns e with every Base whose name occurs in repl replaced
// by (a clone of) the mapped expression. This is the core of query
// translation: substituting each base relation by its inverse expression
// W⁻¹ turns a source query into a warehouse query (Section 3, Step 3).
func Substitute(e Expr, repl map[string]Expr) Expr {
	switch n := e.(type) {
	case *Base:
		if r, ok := repl[n.Name]; ok {
			return Clone(r)
		}
		return &Base{Name: n.Name}
	case *Empty:
		return &Empty{Attrs: append([]string(nil), n.Attrs...)}
	case *Select:
		return &Select{Input: Substitute(n.Input, repl), Cond: CloneCond(n.Cond)}
	case *Project:
		return &Project{Input: Substitute(n.Input, repl), Attrs: append([]string(nil), n.Attrs...)}
	case *Join:
		ins := make([]Expr, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = Substitute(in, repl)
		}
		return &Join{Inputs: ins}
	case *Union:
		return &Union{L: Substitute(n.L, repl), R: Substitute(n.R, repl)}
	case *Diff:
		return &Diff{L: Substitute(n.L, repl), R: Substitute(n.R, repl)}
	case *Rename:
		m := make(map[string]string, len(n.Mapping))
		for k, v := range n.Mapping {
			m[k] = v
		}
		return &Rename{Input: Substitute(n.Input, repl), Mapping: m}
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", e))
	}
}

// Size returns the number of nodes in the expression tree (conditions not
// counted); used by benchmarks to report translated-query growth.
func Size(e Expr) int {
	n := 0
	Walk(e, func(Expr) { n++ })
	return n
}

// sortedMappingKeys returns rename mapping keys in sorted order for
// deterministic printing.
func sortedMappingKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (b *Base) String() string { return b.Name }

func (e *Empty) String() string { return "∅{" + strings.Join(e.Attrs, ",") + "}" }

func (s *Select) String() string {
	return "σ{" + s.Cond.String() + "}(" + s.Input.String() + ")"
}

func (p *Project) String() string {
	return "π{" + strings.Join(p.Attrs, ",") + "}(" + p.Input.String() + ")"
}

func (j *Join) String() string {
	parts := make([]string, len(j.Inputs))
	for i, in := range j.Inputs {
		parts[i] = maybeParen(in)
	}
	return strings.Join(parts, " ⋈ ")
}

func (u *Union) String() string {
	return maybeParen(u.L) + " ∪ " + maybeParen(u.R)
}

func (d *Diff) String() string {
	return maybeParen(d.L) + " ∖ " + maybeParen(d.R)
}

func (r *Rename) String() string {
	parts := make([]string, 0, len(r.Mapping))
	for _, k := range sortedMappingKeys(r.Mapping) {
		parts = append(parts, k+"→"+r.Mapping[k])
	}
	return "ρ{" + strings.Join(parts, ",") + "}(" + r.Input.String() + ")"
}

// maybeParen parenthesizes binary/n-ary subexpressions so precedence is
// unambiguous in printed output.
func maybeParen(e Expr) string {
	switch e.(type) {
	case *Join, *Union, *Diff:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}
