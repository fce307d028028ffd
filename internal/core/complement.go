package core

import (
	"fmt"
	"strings"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
)

// Options selects which parts of the theory the computation applies.
type Options struct {
	// UseKeys enables the key-based covers of Theorem 2.2.
	UseKeys bool
	// UseINDs additionally admits IND-derived pseudo-views into VK^ind
	// (requires UseKeys: pseudo-views must contain the target's key).
	UseINDs bool
	// DetectEmpty runs the static always-empty analysis (Example 2.4 and
	// the full-cover case of Example 2.3); proved-empty complements are
	// replaced by the Empty expression and need no storage or maintenance.
	DetectEmpty bool
	// NamePrefix prefixes complement relation names; default "C_".
	NamePrefix string
}

// Proposition22 returns the options reproducing Proposition 2.2: no
// integrity constraints are exploited.
func Proposition22() Options { return Options{} }

// Theorem22 returns the options reproducing Theorem 2.2: keys, inclusion
// dependencies and the static emptiness analysis.
func Theorem22() Options {
	return Options{UseKeys: true, UseINDs: true, DetectEmpty: true}
}

func (o Options) prefix() string {
	if o.NamePrefix == "" {
		return "C_"
	}
	return o.NamePrefix
}

// Entry is the complement data for one base relation Rj: the complementary
// view Cj (Equation 1 or 3) and the inverse expression recomputing Rj from
// warehouse relations (Equation 2 or 4).
type Entry struct {
	// Base is Rj's name.
	Base string
	// Name is the complement relation's warehouse name (prefix + base).
	Name string
	// AlwaysEmpty reports that Cj was statically proved empty on every
	// consistent state; such complements are not materialized.
	AlwaysEmpty bool
	// Def defines Cj over the base schemata D (an Empty expression when
	// AlwaysEmpty).
	Def algebra.Expr
	// Inverse recomputes Rj over warehouse names only: the materialized
	// views of V and the complement relations.
	Inverse algebra.Expr
	// Covers lists C^ind_{Rj}, the covers used for R^ir (empty without
	// keys).
	Covers []Cover
}

// String renders the entry as the paper writes complements.
func (e *Entry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s = %s", e.Name, e.Def)
	if e.AlwaysEmpty {
		b.WriteString("   (always empty)")
	}
	fmt.Fprintf(&b, "\n%s = %s", e.Base, e.Inverse)
	return b.String()
}

// Target is one relation the warehouse stores: its warehouse name, its
// definition over D, and its attribute set.
type Target struct {
	Name  string
	Def   algebra.Expr
	Attrs relation.AttrSet
}

// Complement is a computed warehouse complement C = {C1..Cn} for a view
// set V over a database D, together with the inverse mapping W⁻¹ and the
// list of relations the warehouse stores.
type Complement struct {
	db      *catalog.Database
	views   *view.Set
	opts    Options
	entries []*Entry
	byBase  map[string]*Entry
	// targets is what W stores, in order: the views, then the stored
	// complements — unless Fold has replaced views by their union.
	targets []Target
}

// Compute derives the complement of the view set over the database under
// the given options. With Options zero value it implements Proposition
// 2.2; with Theorem22() it implements Theorem 2.2.
func Compute(db *catalog.Database, views *view.Set, opts Options) (*Complement, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	if opts.UseINDs && !opts.UseKeys {
		return nil, fmt.Errorf("core: UseINDs requires UseKeys (pseudo-views must contain the target key)")
	}
	c := &Complement{
		db:     db,
		views:  views,
		opts:   opts,
		byBase: make(map[string]*Entry),
	}
	// Complement names must not collide with views or bases.
	for _, base := range db.Names() {
		name := opts.prefix() + base
		if _, clash := views.ByName(name); clash {
			return nil, fmt.Errorf("core: complement name %q clashes with a view", name)
		}
		if _, clash := db.Schema(name); clash {
			return nil, fmt.Errorf("core: complement name %q clashes with a base relation", name)
		}
	}

	order, err := processingOrder(db, opts)
	if err != nil {
		return nil, err
	}
	inverses := make(map[string]algebra.Expr, len(order))
	wres := c.warehouseResolverAll()

	for _, base := range order {
		entry, err := c.computeEntry(base, inverses, wres)
		if err != nil {
			return nil, err
		}
		inverses[base] = entry.Inverse
		c.byBase[base] = entry
	}
	// Entries are reported in database declaration order.
	for _, base := range db.Names() {
		c.entries = append(c.entries, c.byBase[base])
	}
	for _, v := range views.Views() {
		c.targets = append(c.targets, Target{Name: v.Name, Def: v.Expr(), Attrs: v.ProjSet()})
	}
	for _, e := range c.StoredEntries() {
		sc, _ := db.Schema(e.Base)
		c.targets = append(c.targets, Target{Name: e.Name, Def: e.Def, Attrs: sc.AttrSet()})
	}
	return c, nil
}

// Fold returns the complement with the stored views named in parts
// replaced by one stored target name = ∪ parts (in the place of the first
// part; the union in target order), and with W⁻¹ rewritten to read every
// part through parts[part], an expression over name. This is Section 5's
// union-integrated fact table: the caller guarantees parts[p](∪ parts) = p
// on every consistent state, as the per-origin selections of package star
// do. c itself is not modified.
func (c *Complement) Fold(name string, parts map[string]algebra.Expr) (*Complement, error) {
	if _, clash := c.db.Schema(name); clash {
		return nil, fmt.Errorf("core: folded target %q clashes with a base relation", name)
	}
	out := *c
	out.targets = nil
	folded := -1
	var union []algebra.Expr
	for _, t := range c.targets {
		if _, ok := parts[t.Name]; !ok {
			if t.Name == name {
				return nil, fmt.Errorf("core: folded target %q clashes with a stored relation", name)
			}
			out.targets = append(out.targets, t)
			continue
		}
		if folded < 0 {
			folded = len(out.targets)
			out.targets = append(out.targets, Target{Name: name, Attrs: t.Attrs})
		} else if !t.Attrs.Equal(out.targets[folded].Attrs) {
			return nil, fmt.Errorf("core: cannot fold %s into %s: attributes %v, not %v",
				t.Name, name, t.Attrs, out.targets[folded].Attrs)
		}
		union = append(union, t.Def)
	}
	if folded < 0 || len(union) != len(parts) {
		return nil, fmt.Errorf("core: cannot fold into %s: %d of %d parts are stored targets", name, len(union), len(parts))
	}
	out.targets[folded].Def = algebra.NewUnionAll(union...)

	res := out.Resolver()
	out.entries, out.byBase = make([]*Entry, len(c.entries)), make(map[string]*Entry, len(c.entries))
	for i, e := range c.entries {
		ne := *e
		ne.Inverse = algebra.Simplify(algebra.Substitute(e.Inverse, parts), res)
		if _, err := algebra.Attrs(ne.Inverse, res); err != nil {
			return nil, fmt.Errorf("core: inverse of %s after folding into %s: %w", e.Base, name, err)
		}
		out.entries[i], out.byBase[e.Base] = &ne, &ne
	}
	return &out, nil
}

// MustCompute is Compute that panics on error, for fixtures and examples.
func MustCompute(db *catalog.Database, views *view.Set, opts Options) *Complement {
	c, err := Compute(db, views, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// processingOrder returns all base names, IND-topologically ordered
// (sources before targets) so that pseudo-view expansion always finds the
// referenced inverse; bases outside the IND graph keep declaration order.
func processingOrder(db *catalog.Database, opts Options) ([]string, error) {
	if !opts.UseINDs {
		return db.Names(), nil
	}
	topo, err := db.Constraints().TopoOrder()
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(topo))
	for i, n := range topo {
		pos[n] = i
	}
	var inGraph, rest []string
	for _, n := range db.Names() {
		if _, ok := pos[n]; ok {
			inGraph = append(inGraph, n)
		} else {
			rest = append(rest, n)
		}
	}
	// Stable sort of the in-graph relations by topological position.
	for i := 1; i < len(inGraph); i++ {
		for j := i; j > 0 && pos[inGraph[j]] < pos[inGraph[j-1]]; j-- {
			inGraph[j], inGraph[j-1] = inGraph[j-1], inGraph[j]
		}
	}
	return append(inGraph, rest...), nil
}

// warehouseResolverAll returns the warehouse name space assuming every
// complement is stored: all views plus one relation per base schema named
// prefix+base with the base's attribute set. Used while deriving inverse
// expressions; the final Resolver() exposes only stored complements.
func (c *Complement) warehouseResolverAll() algebra.MapResolver {
	m := c.views.Resolver()
	for _, base := range c.db.Names() {
		sc, _ := c.db.Schema(base)
		m[c.opts.prefix()+base] = sc.AttrSet()
	}
	return m
}

// computeEntry derives the complement entry for one base relation.
func (c *Complement) computeEntry(base string, inverses map[string]algebra.Expr, wres algebra.Resolver) (*Entry, error) {
	sc, ok := c.db.Schema(base)
	if !ok {
		return nil, fmt.Errorf("core: unknown base relation %q", base)
	}
	attrRj := sc.AttrSet()
	vr := c.views.Over(base)

	// Rπ_j = ⋃ π_{attr(Rj)}(Vi) over views whose schema contains attr(Rj)
	// (Proposition 2.2; the projection is empty by convention otherwise,
	// so those views are skipped).
	var piTermsD, piTermsW []algebra.Expr
	for _, v := range vr {
		if attrRj.SubsetOf(v.ProjSet()) {
			piTermsD = append(piTermsD, algebra.NewProjectSet(v.Expr(), attrRj))
			piTermsW = append(piTermsW, algebra.NewProjectSet(algebra.NewBase(v.Name), attrRj))
		}
	}

	// R^ir_j: joins of covers of VK^ind_j along the key (Theorem 2.2).
	var covers []Cover
	var irTermsD, irTermsW []algebra.Expr
	if c.opts.UseKeys && sc.HasKey() {
		elems := c.vkIndElements(base, sc.KeySet())
		var err error
		covers, err = enumerateCovers(elems, attrRj)
		if err != nil {
			return nil, fmt.Errorf("core: relation %s: %w", base, err)
		}
		for _, cv := range covers {
			dExprs := make([]algebra.Expr, len(cv.Elems))
			wExprs := make([]algebra.Expr, len(cv.Elems))
			for i, el := range cv.Elems {
				dExprs[i] = el.exprOverD()
				w, err := el.exprOverW(inverses)
				if err != nil {
					return nil, err
				}
				wExprs[i] = w
			}
			irTermsD = append(irTermsD, algebra.NewProjectSet(algebra.NewJoin(dExprs...), attrRj))
			irTermsW = append(irTermsW, algebra.NewProjectSet(algebra.NewJoin(wExprs...), attrRj))
		}
	}

	// Assemble Cj = Rj ∖ (Rπ ∪ R^ir), deduplicating identical terms (a
	// single-view cover {V} duplicates V's Rπ term).
	termsD := dedupeExprs(append(append([]algebra.Expr(nil), piTermsD...), irTermsD...))
	termsW := dedupeExprs(append(append([]algebra.Expr(nil), piTermsW...), irTermsW...))

	entry := &Entry{
		Base:   base,
		Name:   c.opts.prefix() + base,
		Covers: covers,
	}

	if c.opts.DetectEmpty && c.provablyEmpty(base, attrRj, vr, covers) {
		entry.AlwaysEmpty = true
		entry.Def = algebra.NewEmptySet(attrRj)
	} else if len(termsD) == 0 {
		// No view carries information about Rj: the complement is a full
		// copy of the base relation.
		entry.Def = algebra.NewBase(base)
	} else {
		entry.Def = algebra.Simplify(
			algebra.NewDiff(algebra.NewBase(base), algebra.NewUnionAll(termsD...)), c.db)
	}

	// Inverse (Equation 2 / 4): Rj = Cj ∪ Rπ ∪ R^ir over warehouse names.
	var invTerms []algebra.Expr
	if !entry.AlwaysEmpty {
		invTerms = append(invTerms, algebra.NewBase(entry.Name))
	}
	invTerms = append(invTerms, termsW...)
	if len(invTerms) == 0 {
		// Only possible when the complement was proved empty by a covering
		// view, which also contributes a term — defensive fallback.
		entry.Inverse = algebra.NewEmptySet(attrRj)
	} else {
		entry.Inverse = algebra.Simplify(algebra.NewUnionAll(invTerms...), wres)
	}

	// Static validation of both expressions.
	if _, err := algebra.Attrs(entry.Def, c.db); err != nil {
		return nil, fmt.Errorf("core: complement of %s fails validation: %w", base, err)
	}
	if _, err := algebra.Attrs(entry.Inverse, wres); err != nil {
		return nil, fmt.Errorf("core: inverse of %s fails validation: %w", base, err)
	}
	return entry, nil
}

// vkIndElements builds VK^ind_j: key-covering views of V_Rj plus, when
// enabled, IND-derived pseudo-views π_X(Ri) with Kj ⊆ X drawn from the IND
// closure.
func (c *Complement) vkIndElements(base string, key relation.AttrSet) []Element {
	sc, _ := c.db.Schema(base)
	attrRj := sc.AttrSet()
	var elems []Element
	for _, v := range c.views.WithKey(base, key) {
		elems = append(elems, Element{
			View:    v,
			Contrib: v.ProjSet().Intersect(attrRj),
		})
	}
	if c.opts.UseINDs {
		seen := make(map[string]bool)
		for _, d := range c.db.Constraints().INDsInto(base) {
			if !key.SubsetOf(d.X) {
				continue
			}
			el := Element{INDSource: d.From, X: d.X.Clone(), Contrib: d.X.Intersect(attrRj)}
			if seen[el.String()] {
				continue
			}
			seen[el.String()] = true
			elems = append(elems, el)
		}
	}
	return elems
}

// provablyEmpty implements the static always-empty analysis: Cj ≡ ∅ when
// some view (or cover of views) is guaranteed to expose every Rj tuple on
// every consistent state.
func (c *Complement) provablyEmpty(base string, attrRj relation.AttrSet, vr []*view.PSJ, covers []Cover) bool {
	// Case 1 (Example 2.4): a view projecting all of attr(Rj), with a
	// trivial selection, whose join is survival-guaranteed for Rj.
	for _, v := range vr {
		if attrRj.SubsetOf(v.ProjSet()) && c.completeFor(v, base) {
			return true
		}
	}
	// Case 2 (Example 2.3 with key A): a cover consisting solely of
	// complete views — every Rj tuple appears fragment-wise in each, and
	// the key-join reassembles it. Soundness additionally requires that
	// any two cover elements share attributes only within attr(Rj):
	// fragments of the same tuple trivially agree there, whereas shared
	// foreign attributes (picked up from other joined relations) could
	// disagree and drop the tuple from the cover join.
	for _, cv := range covers {
		ok := true
		for _, el := range cv.Elems {
			if el.IsIND() || !c.completeFor(el.View, base) {
				ok = false
				break
			}
		}
		for i := 0; ok && i < len(cv.Elems); i++ {
			for j := i + 1; j < len(cv.Elems); j++ {
				shared := cv.Elems[i].View.ProjSet().Intersect(cv.Elems[j].View.ProjSet())
				if !shared.SubsetOf(attrRj) {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// completeFor reports whether every tuple of base is guaranteed to survive
// the view's selection and join on every consistent database state: the
// selection must be trivial — or implied by declared domain constraints,
// the star-schema case of Section 5 — and every other joined relation must
// be reachable by the iterative join-partner analysis along implied INDs.
func (c *Complement) completeFor(v *view.PSJ, base string) bool {
	cons := c.db.Constraints()
	if !algebra.IsTrivial(v.Cond) && !cons.DomainImplies(v.Cond, v.Bases...) {
		return false
	}
	inS := map[string]bool{base: true}
	sc, _ := c.db.Schema(base)
	covered := sc.AttrSet().Clone()
	remaining := len(v.Bases) - 1
	if !v.Involves(base) {
		return false
	}
	for remaining > 0 {
		progressed := false
		for _, rm := range v.Bases {
			if inS[rm] {
				continue
			}
			rmSchema, ok := c.db.Schema(rm)
			if !ok {
				return false
			}
			x := rmSchema.AttrSet().Intersect(covered)
			if x.IsEmpty() {
				continue // Cartesian leg: partner existence not guaranteed
			}
			// A guaranteed partner requires the shared attributes to be
			// anchored in a single already-joined relation Rs with an
			// implied IND π_X(Rs) ⊆ π_X(Rm).
			for rs := range inS {
				rsSchema, _ := c.db.Schema(rs)
				if x.SubsetOf(rsSchema.AttrSet()) && cons.Implies(rs, rm, x) {
					inS[rm] = true
					covered = covered.Union(rmSchema.AttrSet())
					remaining--
					progressed = true
					break
				}
			}
		}
		if !progressed {
			return false
		}
	}
	return true
}

// dedupeExprs removes structurally equal expressions, keeping first
// occurrences.
func dedupeExprs(exprs []algebra.Expr) []algebra.Expr {
	var out []algebra.Expr
	for _, e := range exprs {
		dup := false
		for _, o := range out {
			if algebra.Equal(e, o) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return out
}

// Entries returns the per-base complement entries in database declaration
// order. Callers must not modify the returned slice.
func (c *Complement) Entries() []*Entry { return c.entries }

// Entry returns the entry for the named base relation.
func (c *Complement) Entry(base string) (*Entry, bool) {
	e, ok := c.byBase[base]
	return e, ok
}

// Database returns the underlying database definition.
func (c *Complement) Database() *catalog.Database { return c.db }

// Views returns the warehouse view set the complement was computed for.
func (c *Complement) Views() *view.Set { return c.views }

// Options returns the options the complement was computed with.
func (c *Complement) Options() Options { return c.opts }

// InverseMap returns W⁻¹ as a substitution: every base relation name
// mapped to its inverse expression over warehouse names. Substituting it
// into any query over D yields the warehouse query Q̂ of Theorem 3.1.
func (c *Complement) InverseMap() map[string]algebra.Expr {
	m := make(map[string]algebra.Expr, len(c.entries))
	for _, e := range c.entries {
		m[e.Base] = e.Inverse
	}
	return m
}

// StoredEntries returns the entries whose complements must actually be
// materialized (those not proved always empty).
func (c *Complement) StoredEntries() []*Entry {
	var out []*Entry
	for _, e := range c.entries {
		if !e.AlwaysEmpty {
			out = append(out, e)
		}
	}
	return out
}

// Targets returns the relations the warehouse stores, in materialization
// and refresh order. Callers must not modify the returned slice.
func (c *Complement) Targets() []Target { return c.targets }

// Resolver returns the warehouse name space, the names W⁻¹ is written in:
// every stored target mapped to its attribute set.
func (c *Complement) Resolver() algebra.MapResolver {
	m := make(algebra.MapResolver, len(c.targets))
	for _, t := range c.targets {
		m[t.Name] = t.Attrs.Clone()
	}
	return m
}

// String renders all entries, one block per base relation.
func (c *Complement) String() string {
	blocks := make([]string, len(c.entries))
	for i, e := range c.entries {
		blocks[i] = e.String()
	}
	return strings.Join(blocks, "\n")
}
