// Package constraint implements the integrity constraints of the paper:
// key constraints (at most one key per relation schema) and inclusion
// dependencies π_X(Ri) ⊆ π_X(Rj) over shared attribute sets X, which the
// complement algorithm of Theorem 2.2 exploits. The paper assumes the set
// of inclusion dependencies to be acyclic; this package validates that
// assumption, computes the transitive closure of INDs, checks states for
// constraint satisfaction, and offers foreign-key sugar (a foreign key is
// the combination of a key and an inclusion dependency, Section 2).
package constraint

import (
	"fmt"
	"sort"
	"strings"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/par"
	"dwcomplement/internal/relation"
)

// IND is the inclusion dependency π_X(From) ⊆ π_X(To) for an attribute set
// X common to both schemata (the paper's simplified form, footnote 3: no
// attribute sequences; renamings can be applied upstream).
type IND struct {
	From string
	To   string
	X    relation.AttrSet
}

// String renders the IND in DSL form: "Sale[clerk] <= Emp[clerk]".
func (d IND) String() string {
	attrs := strings.Join(d.X.Sorted(), ", ")
	return fmt.Sprintf("%s[%s] <= %s[%s]", d.From, attrs, d.To, attrs)
}

// equalKey returns a canonical identity for deduplication.
func (d IND) equalKey() string {
	return d.From + "→" + d.To + "[" + strings.Join(d.X.Sorted(), ",") + "]"
}

// Set is a collection of constraints over a set of relation schemata:
// per-schema keys live on the schemata themselves (relation.Schema.Key);
// the Set holds the inclusion dependencies.
type Set struct {
	inds    []IND
	seen    map[string]bool
	domains []Domain

	closure []IND // memoized Closure(); invalidated by AddIND
}

// NewSet returns an empty constraint set.
func NewSet() *Set {
	return &Set{seen: make(map[string]bool)}
}

// AddIND records an inclusion dependency. Duplicates are ignored. It
// returns an error for malformed INDs (empty X, self-inclusion on an
// identical schema pair is allowed but useless and rejected for hygiene).
func (s *Set) AddIND(from, to string, attrs ...string) error {
	if len(attrs) == 0 {
		return fmt.Errorf("constraint: inclusion dependency %s ⊆ %s with empty attribute set", from, to)
	}
	if from == to {
		return fmt.Errorf("constraint: self-referential inclusion dependency on %s", from)
	}
	d := IND{From: from, To: to, X: relation.NewAttrSet(attrs...)}
	if s.seen[d.equalKey()] {
		return nil
	}
	s.seen[d.equalKey()] = true
	s.inds = append(s.inds, d)
	s.closure = nil
	return nil
}

// DropLastIND removes the most recently added inclusion dependency. It
// exists so callers that validate after insertion (catalog.AddIND) can
// roll a rejected dependency back out instead of leaving the set in a
// state that fails Validate. Dropping from an empty set is a no-op.
func (s *Set) DropLastIND() {
	if len(s.inds) == 0 {
		return
	}
	d := s.inds[len(s.inds)-1]
	s.inds = s.inds[:len(s.inds)-1]
	delete(s.seen, d.equalKey())
	s.closure = nil
}

// DropLastDomain is DropLastIND for domain constraints.
func (s *Set) DropLastDomain() {
	if len(s.domains) == 0 {
		return
	}
	s.domains = s.domains[:len(s.domains)-1]
}

// INDs returns the declared inclusion dependencies, in declaration order.
// The caller must not modify the returned slice.
func (s *Set) INDs() []IND { return s.inds }

// Len returns the number of declared INDs.
func (s *Set) Len() int { return len(s.inds) }

// Validate checks the set against the given schemata: every IND must
// reference known schemata and attribute sets contained in both sides, and
// the IND graph must be acyclic (the paper's standing assumption).
func (s *Set) Validate(schemas map[string]*relation.Schema) error {
	for _, d := range s.inds {
		from, ok := schemas[d.From]
		if !ok {
			return fmt.Errorf("constraint: %s references unknown schema %s", d, d.From)
		}
		to, ok := schemas[d.To]
		if !ok {
			return fmt.Errorf("constraint: %s references unknown schema %s", d, d.To)
		}
		if !d.X.SubsetOf(from.AttrSet()) {
			return fmt.Errorf("constraint: %s: attributes %v not all in %s", d, d.X, d.From)
		}
		if !d.X.SubsetOf(to.AttrSet()) {
			return fmt.Errorf("constraint: %s: attributes %v not all in %s", d, d.X, d.To)
		}
	}
	if cyc := s.FindCycle(); cyc != nil {
		return &CycleError{Path: cyc}
	}
	return s.validateDomains(schemas)
}

// CycleError reports a cyclic IND graph, violating the paper's standing
// acyclicity assumption (Theorem 2.2 processes relations in topological
// IND order). Path holds the offending cycle as relation names with the
// first repeated at the end: [Sale, Emp, Sale].
type CycleError struct {
	Path []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("constraint: inclusion dependencies are cyclic: %s", strings.Join(e.Path, " → "))
}

// FindCycle returns a relation-name cycle in the IND graph with the
// starting relation repeated at the end, or nil when the graph is
// acyclic. The search is deterministic (nodes visited in sorted order),
// so diagnostics are stable.
func (s *Set) FindCycle() []string {
	adj := make(map[string][]string)
	for _, d := range s.inds {
		adj[d.From] = append(adj[d.From], d.To)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	var cycle []string
	var dfs func(string) bool
	dfs = func(u string) bool {
		color[u] = gray
		stack = append(stack, u)
		for _, v := range adj[u] {
			switch color[v] {
			case gray:
				// Found a back edge; extract the cycle from the stack.
				for i, w := range stack {
					if w == v {
						cycle = append(append([]string(nil), stack[i:]...), v)
						return true
					}
				}
			case white:
				if dfs(v) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return false
	}
	nodes := make([]string, 0, len(adj))
	for u := range adj {
		nodes = append(nodes, u)
	}
	sort.Strings(nodes)
	for _, u := range nodes {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// TopoOrder returns the relation names mentioned by INDs in an order where
// every IND source precedes its target. The target Rj of an inclusion
// dependency π_X(Ri) ⊆ π_X(Rj) may use π_X(Ri) as a pseudo-view, so Rj's
// inverse expression refers to Ri's inverse (Theorem 2.2, Example 2.3
// continued); processing sources first makes every referenced inverse
// available. It returns an error if the IND graph is cyclic.
func (s *Set) TopoOrder() ([]string, error) {
	if cyc := s.FindCycle(); cyc != nil {
		return nil, &CycleError{Path: cyc}
	}
	adj := make(map[string][]string)
	indeg := make(map[string]int)
	nodes := relation.NewAttrSet()
	for _, d := range s.inds {
		adj[d.From] = append(adj[d.From], d.To) // edge From → To: sources first
		indeg[d.To]++
		nodes[d.From] = struct{}{}
		nodes[d.To] = struct{}{}
	}
	var queue []string
	for _, n := range nodes.Sorted() {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	var order []string
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		next := append([]string(nil), adj[u]...)
		sort.Strings(next)
		for _, v := range next {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return order, nil
}

// Closure returns the transitive closure of the declared INDs under the
// standard inference rules for inclusion dependencies restricted to the
// paper's same-attribute-set form:
//
//   - transitivity: π_X(R) ⊆ π_X(S), π_X(S) ⊆ π_X(T) ⟹ π_X(R) ⊆ π_X(T);
//   - projection:   π_X(R) ⊆ π_X(S) ⟹ π_Y(R) ⊆ π_Y(S) for Y ⊆ X.
//
// Projection-derived INDs are only materialized on demand by Implies; the
// closure slice contains the transitive closure over declared attribute
// sets, which keeps it finite and small.
func (s *Set) Closure() []IND {
	if s.closure != nil {
		return s.closure
	}
	out := append([]IND(nil), s.inds...)
	seen := make(map[string]bool, len(out))
	for _, d := range out {
		seen[d.equalKey()] = true
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(out); i++ {
			for j := 0; j < len(out); j++ {
				a, b := out[i], out[j]
				if a.To != b.From {
					continue
				}
				x := a.X.Intersect(b.X)
				if x.IsEmpty() || a.From == b.To {
					continue
				}
				d := IND{From: a.From, To: b.To, X: x}
				if !seen[d.equalKey()] {
					seen[d.equalKey()] = true
					out = append(out, d)
					changed = true
				}
			}
		}
	}
	s.closure = out
	return out
}

// Implies reports whether π_X(from) ⊆ π_X(to) follows from the declared
// INDs via transitivity and projection.
func (s *Set) Implies(from, to string, x relation.AttrSet) bool {
	if x.IsEmpty() {
		return false
	}
	if from == to {
		return true // reflexivity
	}
	for _, d := range s.Closure() {
		if d.From == from && d.To == to && x.SubsetOf(d.X) {
			return true
		}
	}
	return false
}

// INDsInto returns all closure INDs whose target is the given relation —
// the candidates for IND-derived pseudo-views of that relation in
// Theorem 2.2.
func (s *Set) INDsInto(to string) []IND {
	var out []IND
	for _, d := range s.Closure() {
		if d.To == to {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].equalKey() < out[j].equalKey() })
	return out
}

// CheckState verifies that a database state satisfies all declared keys,
// INDs and domain constraints. The rels map supplies the current relation
// per schema name; missing relations are treated as empty. The checks run
// side by side (par.Do) over relations nothing may write meanwhile; the
// violation returned is the first in the order keys by schema name, INDs
// and domains by declaration — what running them in turn reports — or nil.
func CheckState(schemas map[string]*relation.Schema, s *Set, rels map[string]*relation.Relation) error {
	var checks []func() error
	names := make([]string, 0, len(schemas))
	for n := range schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if sc, r := schemas[name], rels[name]; sc.HasKey() && r != nil {
			checks = append(checks, func() error { return CheckKey(sc, r) })
		}
	}
	if s != nil {
		for _, d := range s.inds {
			checks = append(checks, func() error { return checkIND(d, rels[d.From], rels[d.To]) })
		}
		for _, d := range s.domains {
			checks = append(checks, func() error { return checkDomain(d, rels[d.Rel]) })
		}
	}
	return par.Do(len(checks), func(i int) error { return checks[i]() })
}

// checkIND probes the referenced relation with every referencing row; the
// projections are built only to describe a violation.
func checkIND(d IND, from, to *relation.Relation) error {
	if from == nil || from.IsEmpty() {
		return nil
	}
	if to == nil {
		return fmt.Errorf("constraint: %s violated: %s is empty but %s is not", d, d.To, d.From)
	}
	attrs := d.X.Sorted()
	if relation.ProjectionSubset(from, to, attrs...) {
		return nil
	}
	diff, err := relation.Diff(relation.Project(from, attrs...), relation.Project(to, attrs...))
	if err != nil {
		return err
	}
	return fmt.Errorf("constraint: %s violated by %d tuple(s), e.g. %v", d, diff.Len(), diff.SortedTuples()[0])
}

// CheckKey verifies the key constraint of a single schema on a relation:
// no two tuples may agree on all key attributes. It asks the relation's
// cached index over the key, which later joins probe again.
func CheckKey(sc *relation.Schema, r *relation.Relation) error {
	if !sc.HasKey() {
		return nil
	}
	keyAttrs := sc.KeySet().Sorted()
	if ix, ok := r.Index(keyAttrs...); ok && ix.Unique() {
		return nil
	}
	proj := relation.Project(r, keyAttrs...)
	if proj.Len() != r.Len() {
		return fmt.Errorf("constraint: key %v of %s violated: %d tuples share %d key values",
			sc.KeySet(), sc.Name, r.Len(), proj.Len())
	}
	return nil
}

// Clone returns a deep copy of the constraint set.
func (s *Set) Clone() *Set {
	c := NewSet()
	for _, d := range s.inds {
		c.inds = append(c.inds, IND{From: d.From, To: d.To, X: d.X.Clone()})
		c.seen[d.equalKey()] = true
	}
	for _, d := range s.domains {
		c.domains = append(c.domains, Domain{Rel: d.Rel, Cond: algebra.CloneCond(d.Cond)})
	}
	return c
}

// String lists the INDs one per line in DSL form.
func (s *Set) String() string {
	lines := make([]string, len(s.inds))
	for i, d := range s.inds {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}
