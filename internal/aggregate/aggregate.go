// Package aggregate implements the OLAP layer of Section 5: materialized
// aggregate views (COUNT/SUM/MIN/MAX per group) defined over warehouse
// fact tables. The paper's architecture keeps aggregates out of
// complement computation — "aggregate queries cannot be exploited when
// computing complements [but] do not restrict the applicability of our
// approach either: the fact tables can be maintained as described above
// using PSJ views, whereas view maintenance algorithms for aggregate
// queries can be used to maintain materialized aggregate queries" — so
// this package consumes the fact-table deltas produced by package
// maintain and keeps summary tables incrementally up to date, in the
// style of Mumick/Quass/Mumick (SIGMOD'97), which the paper cites.
package aggregate

import (
	"fmt"
	"sort"
	"strings"

	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
)

// Func enumerates the supported aggregate functions.
type Func uint8

// The aggregate functions.
const (
	Count Func = iota
	Sum
	Min
	Max
)

// String returns the SQL-ish spelling.
func (f Func) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "agg?"
	}
}

// View is a materialized aggregate view: γ_{GroupBy; Agg(Attr)}(Fact).
// COUNT ignores Attr (COUNT(*) per group, counting distinct fact tuples —
// the engine is set-based, so duplicates cannot occur).
type View struct {
	Name    string
	Fact    string // the fact table (any maintained warehouse relation)
	GroupBy []string
	Agg     Func
	Attr    string

	// groups holds the running aggregate per group key, plus the exact
	// per-group counts needed for correct deletion handling.
	groups map[string]*groupState
}

type groupState struct {
	key   relation.Tuple // group-by values, in GroupBy order
	count int64          // number of contributing fact tuples
	sum   float64        // running sum (Sum)
	summf bool           // sum holds float contributions
	min   relation.Value // current extremum (Min/Max)
	max   relation.Value
}

// New declares an aggregate view. Validation against the fact table's
// schema happens at Initialize time (the fact relation carries its own
// attribute set).
func New(name, fact string, groupBy []string, agg Func, attr string) *View {
	return &View{
		Name:    name,
		Fact:    fact,
		GroupBy: append([]string(nil), groupBy...),
		Agg:     agg,
		Attr:    attr,
		groups:  make(map[string]*groupState),
	}
}

// String renders the definition: "SalesPerSite = γ{loc; sum(qty)}(Orders)".
func (v *View) String() string {
	return fmt.Sprintf("%s = γ{%s; %s(%s)}(%s)",
		v.Name, strings.Join(v.GroupBy, ","), v.Agg, v.Attr, v.Fact)
}

// validate checks the view against the fact relation's schema.
func (v *View) validate(fact *relation.Relation) error {
	for _, g := range v.GroupBy {
		if !fact.HasAttr(g) {
			return fmt.Errorf("aggregate: %s groups by %q, not an attribute of %s", v.Name, g, v.Fact)
		}
	}
	if v.Agg != Count && !fact.HasAttr(v.Attr) {
		return fmt.Errorf("aggregate: %s aggregates %q, not an attribute of %s", v.Name, v.Attr, v.Fact)
	}
	if len(v.GroupBy) == 0 {
		return fmt.Errorf("aggregate: %s has no group-by attributes", v.Name)
	}
	return nil
}

// Initialize (re)builds the aggregate from the fact table's full content.
func (v *View) Initialize(fact *relation.Relation) error {
	if err := v.validate(fact); err != nil {
		return err
	}
	v.groups = make(map[string]*groupState)
	for t := range fact.All() {
		if err := v.add(fact, t); err != nil {
			return err
		}
	}
	return nil
}

func (v *View) keyOf(fact *relation.Relation, t relation.Tuple) (string, relation.Tuple) {
	vals := make(relation.Tuple, len(v.GroupBy))
	var b strings.Builder
	for i, g := range v.GroupBy {
		vals[i] = fact.Get(t, g)
		b.WriteString(vals[i].Literal())
		b.WriteByte('|')
	}
	return b.String(), vals
}

func (v *View) add(fact *relation.Relation, t relation.Tuple) error {
	k, vals := v.keyOf(fact, t)
	g, ok := v.groups[k]
	if !ok {
		g = &groupState{key: vals}
		v.groups[k] = g
	}
	g.count++
	if v.Agg == Count {
		return nil
	}
	val := fact.Get(t, v.Attr)
	switch v.Agg {
	case Sum:
		switch val.Kind() {
		case relation.KindInt, relation.KindFloat:
			g.sum += val.AsFloat()
		default:
			return fmt.Errorf("aggregate: %s: sum over non-numeric value %s", v.Name, val)
		}
	case Min:
		if g.count == 1 || val.Less(g.min) {
			g.min = val
		}
	case Max:
		if g.count == 1 || g.max.Less(val) {
			g.max = val
		}
	}
	return nil
}

// remove handles one fact-tuple deletion. For Min/Max, deleting the
// current extremum leaves the group's aggregate unknown; the caller must
// then rebuild the group from the post-state fact table, which the
// warehouse holds locally — still no source access.
func (v *View) remove(fact *relation.Relation, t relation.Tuple) (needsRescan bool, key string) {
	k, _ := v.keyOf(fact, t)
	g, ok := v.groups[k]
	if !ok {
		return false, ""
	}
	g.count--
	if g.count <= 0 {
		delete(v.groups, k)
		return false, ""
	}
	switch v.Agg {
	case Sum:
		g.sum -= fact.Get(t, v.Attr).AsFloat()
	case Min:
		if fact.Get(t, v.Attr).Equal(g.min) {
			return true, k
		}
	case Max:
		if fact.Get(t, v.Attr).Equal(g.max) {
			return true, k
		}
	}
	return false, ""
}

// Apply maintains the aggregate under a fact-table delta. The delta must
// be exact (every deletion present in the pre-state, every insertion
// absent, no overlap — see maintain.Delta.Exact). postFact must be the
// fact table *after* the delta was applied (the warehouse relation
// itself); it is consulted only to rebuild groups whose Min/Max extremum
// was deleted.
func (v *View) Apply(d maintain.Delta, postFact *relation.Relation) error {
	if err := v.validate(postFact); err != nil {
		return err
	}
	rescan := map[string]bool{}
	for t := range d.Del.All() {
		if needs, key := v.remove(d.Del, t); needs {
			rescan[key] = true
		}
	}
	// An insert into a group pending rescan refreshes the extremum
	// anyway; the rescan below recomputes from scratch regardless.
	for t := range d.Ins.All() {
		if err := v.add(d.Ins, t); err != nil {
			return err
		}
	}
	for key := range rescan {
		if g, ok := v.groups[key]; ok {
			if err := v.rebuildGroup(key, g, postFact); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebuildGroup recomputes one group's extremum from the post-state fact
// table.
func (v *View) rebuildGroup(key string, g *groupState, fact *relation.Relation) error {
	first := true
	var count int64
	for t := range fact.All() {
		k, _ := v.keyOf(fact, t)
		if k != key {
			continue
		}
		count++
		val := fact.Get(t, v.Attr)
		if first {
			g.min, g.max = val, val
			first = false
			continue
		}
		if val.Less(g.min) {
			g.min = val
		}
		if g.max.Less(val) {
			g.max = val
		}
	}
	if count == 0 {
		delete(v.groups, key)
		return nil
	}
	g.count = count
	return nil
}

// Consume implements maintain.DeltaConsumer: deltas targeting the view's
// fact table maintain the aggregate, others are ignored. Register the
// view with Maintainer.AddConsumer and it stays current through every
// refresh.
func (v *View) Consume(target string, d maintain.Delta, post *relation.Relation) error {
	if target != v.Fact {
		return nil
	}
	return v.Apply(d, post)
}

// Result materializes the aggregate as a relation with schema
// GroupBy ++ [agg].
func (v *View) Result() *relation.Relation {
	attrs := append(append([]string(nil), v.GroupBy...), v.Agg.String())
	out := relation.New(attrs...)
	for _, g := range v.groups {
		t := append(g.key.Clone(), v.value(g))
		out.Insert(t)
	}
	return out
}

func (v *View) value(g *groupState) relation.Value {
	switch v.Agg {
	case Count:
		return relation.Int(g.count)
	case Sum:
		if g.sum == float64(int64(g.sum)) {
			return relation.Int(int64(g.sum))
		}
		return relation.Float(g.sum)
	case Min:
		return g.min
	case Max:
		return g.max
	default:
		return relation.Null()
	}
}

// Groups returns the number of groups currently materialized.
func (v *View) Groups() int { return len(v.groups) }

// Recompute evaluates the aggregate from scratch on a fact relation —
// the reference implementation the incremental path is tested against.
func Recompute(v *View, fact *relation.Relation) (*relation.Relation, error) {
	fresh := New(v.Name, v.Fact, v.GroupBy, v.Agg, v.Attr)
	if err := fresh.Initialize(fact); err != nil {
		return nil, err
	}
	return fresh.Result(), nil
}

// SortedGroupKeys returns the group keys in deterministic order, for
// stable printing.
func (v *View) SortedGroupKeys() []string {
	keys := make([]string, 0, len(v.groups))
	for k := range v.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
