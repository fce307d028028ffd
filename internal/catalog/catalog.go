// Package catalog models the paper's database side: the fixed set
// D = {R1..Rn} of relation schemata (possibly coming from several source
// databases), database states d = ⟨r1..rn⟩ over D, and updates u that turn
// a state d into a state d' by inserting and deleting tuples per relation
// (the paper treats modifications as delete+insert, footnote 1).
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/constraint"
	"dwcomplement/internal/relation"
)

// Database is the schema set D together with its integrity constraints:
// per-schema keys (on the schemata) and inclusion dependencies.
type Database struct {
	schemas map[string]*relation.Schema
	order   []string // declaration order, for deterministic iteration
	cons    *constraint.Set
}

// NewDatabase returns an empty database definition.
func NewDatabase() *Database {
	return &Database{
		schemas: make(map[string]*relation.Schema),
		cons:    constraint.NewSet(),
	}
}

// AddSchema registers a relation schema. It returns an error on duplicate
// names or invalid schemata.
func (db *Database) AddSchema(s *relation.Schema) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if _, dup := db.schemas[s.Name]; dup {
		return fmt.Errorf("catalog: duplicate schema %s", s.Name)
	}
	db.schemas[s.Name] = s.Clone()
	db.order = append(db.order, s.Name)
	return nil
}

// MustAddSchema is AddSchema that panics on error, for fluent setup code.
func (db *Database) MustAddSchema(s *relation.Schema) *Database {
	if err := db.AddSchema(s); err != nil {
		panic(err)
	}
	return db
}

// AddIND declares the inclusion dependency π_attrs(from) ⊆ π_attrs(to).
// A dependency that fails validation (unknown schema, attributes outside
// a side, cycle) is rolled back, leaving the database as it was.
func (db *Database) AddIND(from, to string, attrs ...string) error {
	n := db.cons.Len()
	if err := db.cons.AddIND(from, to, attrs...); err != nil {
		return err
	}
	if err := db.cons.Validate(db.schemas); err != nil {
		if db.cons.Len() > n {
			db.cons.DropLastIND()
		}
		return err
	}
	return nil
}

// MustAddIND is AddIND that panics on error.
func (db *Database) MustAddIND(from, to string, attrs ...string) *Database {
	if err := db.AddIND(from, to, attrs...); err != nil {
		panic(err)
	}
	return db
}

// AddDomain declares a domain constraint: every tuple of rel satisfies
// cond on every valid state (Section 5's per-site data ownership is the
// motivating case).
func (db *Database) AddDomain(rel string, cond algebra.Cond) error {
	if err := db.cons.AddDomain(rel, cond); err != nil {
		return err
	}
	if err := db.cons.Validate(db.schemas); err != nil {
		db.cons.DropLastDomain()
		return err
	}
	return nil
}

// MustAddDomain is AddDomain that panics on error.
func (db *Database) MustAddDomain(rel string, cond algebra.Cond) *Database {
	if err := db.AddDomain(rel, cond); err != nil {
		panic(err)
	}
	return db
}

// AddForeignKey declares that attrs of from reference the key of to: it
// validates that attrs equals to's key and records the corresponding IND.
// This is the paper's foreign-key case ("combinations of key and inclusion
// constraints").
func (db *Database) AddForeignKey(from string, attrs []string, to string) error {
	target, ok := db.schemas[to]
	if !ok {
		return fmt.Errorf("catalog: foreign key references unknown schema %s", to)
	}
	if !target.HasKey() {
		return fmt.Errorf("catalog: foreign key target %s has no key", to)
	}
	if !relation.NewAttrSet(attrs...).Equal(target.KeySet()) {
		return fmt.Errorf("catalog: foreign key attributes %v do not match key %v of %s",
			relation.NewAttrSet(attrs...), target.KeySet(), to)
	}
	return db.AddIND(from, to, attrs...)
}

// Schema returns the named schema and whether it exists.
func (db *Database) Schema(name string) (*relation.Schema, bool) {
	s, ok := db.schemas[name]
	return s, ok
}

// Schemas returns the schema map keyed by name. Callers must not modify it.
func (db *Database) Schemas() map[string]*relation.Schema { return db.schemas }

// Names returns the schema names in declaration order.
func (db *Database) Names() []string { return append([]string(nil), db.order...) }

// Constraints returns the inclusion-dependency set. Callers must not
// modify it directly; use AddIND.
func (db *Database) Constraints() *constraint.Set { return db.cons }

// Validate re-checks all schemata and constraints.
func (db *Database) Validate() error {
	for _, name := range db.order {
		if err := db.schemas[name].Validate(); err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
	}
	return db.cons.Validate(db.schemas)
}

// BaseAttrs implements algebra.Resolver over the base schemata.
func (db *Database) BaseAttrs(name string) (relation.AttrSet, bool) {
	s, ok := db.schemas[name]
	if !ok {
		return nil, false
	}
	return s.AttrSet(), true
}

// NewState returns an empty database state over D: one empty relation per
// schema, in schema attribute order.
func (db *Database) NewState() *State {
	st := &State{db: db, rels: make(map[string]*relation.Relation, len(db.order))}
	for _, name := range db.order {
		st.rels[name] = relation.NewFromSchema(db.schemas[name])
	}
	return st
}

// String renders the database definition in DSL form.
func (db *Database) String() string {
	var b strings.Builder
	for _, name := range db.order {
		b.WriteString("relation ")
		b.WriteString(db.schemas[name].String())
		b.WriteByte('\n')
	}
	for _, d := range db.cons.INDs() {
		b.WriteString("ind ")
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// State is a database state d = ⟨r1..rn⟩ over a Database.
type State struct {
	db   *Database
	rels map[string]*relation.Relation
}

// Database returns the owning database definition.
func (st *State) Database() *Database { return st.db }

// Relation implements algebra.State.
func (st *State) Relation(name string) (*relation.Relation, bool) {
	r, ok := st.rels[name]
	return r, ok
}

// MustRelation returns the named relation, panicking on unknown names.
func (st *State) MustRelation(name string) *relation.Relation {
	r, ok := st.rels[name]
	if !ok {
		panic(fmt.Sprintf("catalog: state has no relation %q", name))
	}
	return r
}

// Insert adds a tuple to the named relation, with type checking against
// the schema. It reports whether the tuple was new. The relation copies
// the values, and inserts into different relations of one state may run
// concurrently.
func (st *State) Insert(name string, t relation.Tuple) (bool, error) {
	r, err := st.typed(name, t)
	if err != nil {
		return false, err
	}
	return r.Insert(t), nil
}

// typed returns the named relation once t has its schema's arity and every
// value the kind its attribute declares.
func (st *State) typed(name string, t relation.Tuple) (*relation.Relation, error) {
	sc, ok := st.db.schemas[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q: %w", name, algebra.ErrUnknownRelation)
	}
	if len(t) != len(sc.Attrs) {
		return nil, fmt.Errorf("catalog: arity mismatch inserting into %s: got %d values, want %d: %w", name, len(t), len(sc.Attrs), relation.ErrSchemaMismatch)
	}
	for i, v := range t {
		if !v.CheckKind(sc.Attrs[i].Type) {
			return nil, fmt.Errorf("catalog: value %s (kind %s) not valid for attribute %s %s of %s",
				v, v.Kind(), sc.Attrs[i].Name, sc.Attrs[i].Type, name)
		}
	}
	return st.rels[name], nil
}

// MustInsert is Insert that panics on error, for fixtures.
func (st *State) MustInsert(name string, vals ...relation.Value) *State {
	if _, err := st.Insert(name, relation.Tuple(vals)); err != nil {
		panic(err)
	}
	return st
}

// Delete removes a tuple from the named relation; it reports whether the
// tuple was present.
func (st *State) Delete(name string, t relation.Tuple) (bool, error) {
	r, ok := st.rels[name]
	if !ok {
		return false, fmt.Errorf("catalog: unknown relation %q: %w", name, algebra.ErrUnknownRelation)
	}
	return r.Delete(t), nil
}

// Check verifies the state against all declared constraints.
func (st *State) Check() error {
	return constraint.CheckState(st.db.schemas, st.db.cons, st.rels)
}

// Clone returns a deep copy sharing the database definition.
func (st *State) Clone() *State {
	c := &State{db: st.db, rels: make(map[string]*relation.Relation, len(st.rels))}
	for name, r := range st.rels {
		c.rels[name] = r.Clone()
	}
	return c
}

// Equal reports whether two states over the same database have identical
// contents.
func (st *State) Equal(o *State) bool {
	if len(st.rels) != len(o.rels) {
		return false
	}
	for name, r := range st.rels {
		or, ok := o.rels[name]
		if !ok || !r.Equal(or) {
			return false
		}
	}
	return true
}

// Fingerprint returns an order-independent identity of the whole state,
// used by the injectivity experiments (Proposition 2.1).
func (st *State) Fingerprint() string {
	names := make([]string, 0, len(st.rels))
	for n := range st.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(st.rels[n].Fingerprint())
		b.WriteByte('#')
	}
	return b.String()
}

// Size returns the total number of tuples across all relations.
func (st *State) Size() int {
	n := 0
	for _, r := range st.rels {
		n += r.Len()
	}
	return n
}

// String renders every relation of the state as a table, in declaration
// order.
func (st *State) String() string {
	var b strings.Builder
	for _, name := range st.db.order {
		fmt.Fprintf(&b, "%s:\n%s\n", name, st.rels[name])
	}
	return b.String()
}
