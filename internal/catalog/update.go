package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/relation"
)

// Update is the paper's update u over D: per-relation sets of tuples to
// insert and to delete. Applying u to a state d yields the state d' of
// Figure 3. Modifications are expressed as delete+insert (footnote 1).
type Update struct {
	ins map[string]*relation.Relation
	del map[string]*relation.Relation
}

// NewUpdate returns an empty update.
func NewUpdate() *Update {
	return &Update{
		ins: make(map[string]*relation.Relation),
		del: make(map[string]*relation.Relation),
	}
}

// Insert schedules a tuple insertion into the named relation. The tuple is
// given in the schema's attribute order of the relation set it will apply
// to; attribute order is fixed when the first tuple for a relation is
// scheduled via the attrs parameter of bucket.
func (u *Update) Insert(name string, db *Database, t relation.Tuple) error {
	r, err := u.bucket(u.ins, name, db)
	if err != nil {
		return err
	}
	if len(t) != r.Arity() {
		return fmt.Errorf("catalog: update insert arity mismatch for %s: %w", name, relation.ErrSchemaMismatch)
	}
	r.Insert(t)
	return nil
}

// Delete schedules a tuple deletion from the named relation.
func (u *Update) Delete(name string, db *Database, t relation.Tuple) error {
	r, err := u.bucket(u.del, name, db)
	if err != nil {
		return err
	}
	if len(t) != r.Arity() {
		return fmt.Errorf("catalog: update delete arity mismatch for %s: %w", name, relation.ErrSchemaMismatch)
	}
	r.Insert(t)
	return nil
}

// MustInsert is Insert that panics on error.
func (u *Update) MustInsert(name string, db *Database, vals ...relation.Value) *Update {
	if err := u.Insert(name, db, relation.Tuple(vals)); err != nil {
		panic(err)
	}
	return u
}

// MustDelete is Delete that panics on error.
func (u *Update) MustDelete(name string, db *Database, vals ...relation.Value) *Update {
	if err := u.Delete(name, db, relation.Tuple(vals)); err != nil {
		panic(err)
	}
	return u
}

func (u *Update) bucket(m map[string]*relation.Relation, name string, db *Database) (*relation.Relation, error) {
	if r, ok := m[name]; ok {
		return r, nil
	}
	sc, ok := db.Schema(name)
	if !ok {
		return nil, fmt.Errorf("catalog: update references unknown relation %q: %w", name, algebra.ErrUnknownRelation)
	}
	r := relation.NewFromSchema(sc)
	m[name] = r
	return r, nil
}

// Inserts returns the scheduled insertions for the named relation (nil if
// none).
func (u *Update) Inserts(name string) *relation.Relation { return u.ins[name] }

// Deletes returns the scheduled deletions for the named relation (nil if
// none).
func (u *Update) Deletes(name string) *relation.Relation { return u.del[name] }

// Touched returns the sorted names of relations with scheduled changes.
func (u *Update) Touched() []string {
	set := relation.NewAttrSet()
	for n := range u.ins {
		set[n] = struct{}{}
	}
	for n := range u.del {
		set[n] = struct{}{}
	}
	return set.Sorted()
}

// IsEmpty reports whether the update schedules no changes.
func (u *Update) IsEmpty() bool {
	for _, r := range u.ins {
		if !r.IsEmpty() {
			return false
		}
	}
	for _, r := range u.del {
		if !r.IsEmpty() {
			return false
		}
	}
	return true
}

// Size returns the total number of scheduled tuple changes.
func (u *Update) Size() int {
	n := 0
	for _, r := range u.ins {
		n += r.Len()
	}
	for _, r := range u.del {
		n += r.Len()
	}
	return n
}

// Reverse returns the update that undoes u: its insertions are u's
// deletions and the other way round. When u is exact against d, Reverse is
// exact against u(d), and takes it back to d. The relations are shared
// with u.
func (u *Update) Reverse() *Update { return &Update{ins: u.del, del: u.ins} }

// Normalize returns an equivalent update relative to the given pre-state,
// with the paper-standard properties the maintenance delta rules assume:
// scheduled insertions that are already present in d are dropped,
// scheduled deletions of absent tuples are dropped, and a tuple scheduled
// for both insert and delete is treated as a no-op and dropped from both
// sides.
func (u *Update) Normalize(st *State) *Update {
	n := NewUpdate()
	for name, ins := range u.ins {
		cur := st.MustRelation(name)
		del := u.del[name]
		out := relation.NewFromSchema(mustSchema(st.db, name))
		for t := range ins.All() {
			if del != nil && del.ContainsAligned(t, ins) && !cur.ContainsAligned(t, ins) {
				continue // insert+delete of an absent tuple: no-op
			}
			if cur.ContainsAligned(t, ins) {
				continue // already present
			}
			out.Insert(alignTuple(ins, out, t))
		}
		if !out.IsEmpty() {
			n.ins[name] = out
		}
	}
	for name, del := range u.del {
		cur := st.MustRelation(name)
		ins := u.ins[name]
		out := relation.NewFromSchema(mustSchema(st.db, name))
		for t := range del.All() {
			if !cur.ContainsAligned(t, del) {
				continue // not present: nothing to delete
			}
			if ins != nil && ins.ContainsAligned(t, del) {
				continue // delete+re-insert of a present tuple: no-op
			}
			out.Insert(alignTuple(del, out, t))
		}
		if !out.IsEmpty() {
			n.del[name] = out
		}
	}
	return n
}

func mustSchema(db *Database, name string) *relation.Schema {
	sc, ok := db.Schema(name)
	if !ok {
		panic(fmt.Sprintf("catalog: unknown relation %q", name))
	}
	return sc
}

// alignTuple relays tuple t laid out in src's column order into dst's
// column order (equal attribute sets): t itself when the orders agree.
func alignTuple(src, dst *relation.Relation, t relation.Tuple) relation.Tuple {
	if slices.Equal(src.Attrs(), dst.Attrs()) {
		return t
	}
	out := make(relation.Tuple, dst.Arity())
	for i, a := range dst.Attrs() {
		p, ok := src.Pos(a)
		if !ok {
			panic(fmt.Sprintf("catalog: attribute %q missing while aligning update tuple", a))
		}
		out[i] = t[p]
	}
	return out
}

// Apply executes the update on the state in place: deletions first, then
// insertions (the order is immaterial after Normalize). It does not check
// constraints; use ApplyChecked for constraint-enforcing application.
func (u *Update) Apply(st *State) error {
	for name, del := range u.del {
		cur, ok := st.Relation(name)
		if !ok {
			return fmt.Errorf("catalog: update references unknown relation %q: %w", name, algebra.ErrUnknownRelation)
		}
		for t := range del.All() {
			cur.Delete(alignTuple(del, cur, t))
		}
	}
	for name, ins := range u.ins {
		cur, ok := st.Relation(name)
		if !ok {
			return fmt.Errorf("catalog: update references unknown relation %q: %w", name, algebra.ErrUnknownRelation)
		}
		for t := range ins.All() {
			if _, err := st.Insert(name, alignTuple(ins, cur, t)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyChecked applies the update to a copy of the state, verifies all
// constraints on the result, and commits it back only when valid. On
// constraint violation the original state is untouched and the violation
// is returned.
func (u *Update) ApplyChecked(st *State) error {
	trial := st.Clone()
	if err := u.Apply(trial); err != nil {
		return err
	}
	if err := trial.Check(); err != nil {
		return err
	}
	st.rels = trial.rels
	return nil
}

// String renders the update as "+R(a, b)" / "-R(a, b)" lines, sorted.
func (u *Update) String() string {
	var lines []string
	for name, r := range u.ins {
		for _, t := range r.SortedTuples() {
			lines = append(lines, "+"+name+tupleString(t))
		}
	}
	for name, r := range u.del {
		for _, t := range r.SortedTuples() {
			lines = append(lines, "-"+name+tupleString(t))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func tupleString(t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Literal()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
