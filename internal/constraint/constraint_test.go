package constraint

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/relation"
)

func schemas() map[string]*relation.Schema {
	return map[string]*relation.Schema{
		"Sale": relation.NewSchema("Sale", "item:string", "clerk:string"),
		"Emp":  relation.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"),
		"R1":   relation.NewSchema("R1", "A", "B", "C").WithKey("A"),
		"R2":   relation.NewSchema("R2", "A", "C", "D").WithKey("A"),
		"R3":   relation.NewSchema("R3", "A", "B").WithKey("A"),
	}
}

func TestAddINDValidation(t *testing.T) {
	s := NewSet()
	if err := s.AddIND("Sale", "Emp"); err == nil {
		t.Error("empty X accepted")
	}
	if err := s.AddIND("Sale", "Sale", "clerk"); err == nil {
		t.Error("self IND accepted")
	}
	if err := s.AddIND("Sale", "Emp", "clerk"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIND("Sale", "Emp", "clerk"); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("duplicate IND not deduped: %d", s.Len())
	}
	if got := s.INDs()[0].String(); got != "Sale[clerk] <= Emp[clerk]" {
		t.Errorf("String = %q", got)
	}
}

func TestValidateAgainstSchemas(t *testing.T) {
	sc := schemas()
	ok := NewSet()
	ok.AddIND("Sale", "Emp", "clerk")
	if err := ok.Validate(sc); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}

	unknown := NewSet()
	unknown.AddIND("Nope", "Emp", "clerk")
	if err := unknown.Validate(sc); err == nil {
		t.Error("unknown schema accepted")
	}

	badAttr := NewSet()
	badAttr.AddIND("Sale", "Emp", "age") // age not in Sale
	if err := badAttr.Validate(sc); err == nil {
		t.Error("IND attribute outside source accepted")
	}
}

func TestAcyclicity(t *testing.T) {
	sc := map[string]*relation.Schema{
		"A": relation.NewSchema("A", "x"),
		"B": relation.NewSchema("B", "x"),
		"C": relation.NewSchema("C", "x"),
	}
	cyc := NewSet()
	cyc.AddIND("A", "B", "x")
	cyc.AddIND("B", "C", "x")
	cyc.AddIND("C", "A", "x")
	err := cyc.Validate(sc)
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cycle not detected: %v", err)
	}
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("Validate returned %T, want *CycleError", err)
	}
	// FindCycle visits nodes in sorted order, so the reported path starts
	// at A and repeats it at the end.
	if got, want := strings.Join(ce.Path, "→"), "A→B→C→A"; got != want {
		t.Errorf("cycle path = %s, want %s", got, want)
	}
	if !strings.Contains(err.Error(), "A → B → C → A") {
		t.Errorf("error does not spell out the cycle path: %v", err)
	}
	if _, err := cyc.TopoOrder(); err == nil {
		t.Error("TopoOrder accepted cyclic set")
	}
	if cyc.FindCycle() == nil {
		t.Error("FindCycle returned nil for cyclic set")
	}

	dag := NewSet()
	dag.AddIND("A", "B", "x")
	dag.AddIND("B", "C", "x")
	if err := dag.Validate(sc); err != nil {
		t.Errorf("acyclic set rejected: %v", err)
	}
	order, err := dag.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	// Sources must precede targets: A before B before C, because a
	// target's inverse expression refers to the source's inverse.
	if !(pos["A"] < pos["B"] && pos["B"] < pos["C"]) {
		t.Errorf("topo order wrong: %v", order)
	}
}

func TestClosureTransitivity(t *testing.T) {
	s := NewSet()
	s.AddIND("R3", "R1", "A", "B")
	s.AddIND("R1", "R2", "A", "C")
	// Transitive: R3[A] <= R2[A] (intersection of {A,B} and {A,C} = {A}).
	if !s.Implies("R3", "R2", relation.NewAttrSet("A")) {
		t.Error("transitive IND not derived")
	}
	// Projection: R3[A] <= R1[A] follows from R3[A,B] <= R1[A,B].
	if !s.Implies("R3", "R1", relation.NewAttrSet("A")) {
		t.Error("projected IND not derived")
	}
	// Not derivable: R3[B] <= R2[B].
	if s.Implies("R3", "R2", relation.NewAttrSet("B")) {
		t.Error("unsound IND derived")
	}
	// Reflexivity.
	if !s.Implies("R1", "R1", relation.NewAttrSet("A")) {
		t.Error("reflexivity missing")
	}
	// Empty X never implied.
	if s.Implies("R3", "R1", relation.NewAttrSet()) {
		t.Error("empty attribute set implied")
	}
}

func TestINDsInto(t *testing.T) {
	s := NewSet()
	s.AddIND("R3", "R1", "A", "B")
	s.AddIND("R2", "R1", "A", "C")
	s.AddIND("R1", "Emp", "A") // irrelevant direction
	into := s.INDsInto("R1")
	if len(into) != 2 {
		t.Fatalf("INDsInto(R1) = %v", into)
	}
	for _, d := range into {
		if d.To != "R1" {
			t.Errorf("wrong target: %v", d)
		}
	}
}

func TestCheckKey(t *testing.T) {
	sc := relation.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk")
	r := relation.NewFromSchema(sc)
	r.InsertValues(relation.String_("Mary"), relation.Int(23))
	r.InsertValues(relation.String_("John"), relation.Int(25))
	if err := CheckKey(sc, r); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
	r.InsertValues(relation.String_("Mary"), relation.Int(99))
	if err := CheckKey(sc, r); err == nil {
		t.Error("key violation not detected")
	}
	// No key declared: always fine.
	noKey := relation.NewSchema("Sale", "item", "clerk")
	if err := CheckKey(noKey, r); err != nil {
		t.Errorf("keyless schema rejected: %v", err)
	}
}

func TestCheckState(t *testing.T) {
	sc := schemas()
	s := NewSet()
	s.AddIND("Sale", "Emp", "clerk")

	sale := relation.NewFromSchema(sc["Sale"])
	sale.InsertValues(relation.String_("TV"), relation.String_("Mary"))
	emp := relation.NewFromSchema(sc["Emp"])
	emp.InsertValues(relation.String_("Mary"), relation.Int(23))
	rels := map[string]*relation.Relation{"Sale": sale, "Emp": emp}

	if err := CheckState(sc, s, rels); err != nil {
		t.Errorf("consistent state rejected: %v", err)
	}

	sale.InsertValues(relation.String_("PC"), relation.String_("Ghost"))
	err := CheckState(sc, s, rels)
	if err == nil || !strings.Contains(err.Error(), "violated") {
		t.Errorf("IND violation not detected: %v", err)
	}
	sale.Delete(relation.Tuple{relation.String_("PC"), relation.String_("Ghost")})

	emp.InsertValues(relation.String_("Mary"), relation.Int(99))
	if err := CheckState(sc, s, rels); err == nil {
		t.Error("key violation not detected by CheckState")
	}
}

func TestCheckStateEmptyTarget(t *testing.T) {
	sc := map[string]*relation.Schema{
		"A": relation.NewSchema("A", "x"),
		"B": relation.NewSchema("B", "x"),
	}
	s := NewSet()
	s.AddIND("A", "B", "x")
	a := relation.NewFromSchema(sc["A"])
	a.InsertValues(relation.Int(1))
	// Target relation missing entirely.
	if err := CheckState(sc, s, map[string]*relation.Relation{"A": a}); err == nil {
		t.Error("IND into missing relation not detected")
	}
	// Empty source: fine even with missing target.
	empty := relation.NewFromSchema(sc["A"])
	if err := CheckState(sc, s, map[string]*relation.Relation{"A": empty}); err != nil {
		t.Errorf("empty source rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSet()
	s.AddIND("Sale", "Emp", "clerk")
	c := s.Clone()
	c.AddIND("Emp", "Sale", "clerk") // would create a cycle in c only
	if s.Len() != 1 || c.Len() != 2 {
		t.Error("Clone shares IND storage")
	}
	if s.String() != "Sale[clerk] <= Emp[clerk]" {
		t.Errorf("String = %q", s.String())
	}
}

func TestClosureCacheInvalidation(t *testing.T) {
	s := NewSet()
	s.AddIND("A", "B", "x")
	_ = s.Closure()
	s.AddIND("B", "C", "x")
	if !s.Implies("A", "C", relation.NewAttrSet("x")) {
		t.Error("closure cache not invalidated by AddIND")
	}
}

func TestDomainConstraints(t *testing.T) {
	s := NewSet()
	if err := s.AddDomain("R", algebra.True{}); err == nil {
		t.Error("trivial domain accepted")
	}
	cond := algebra.AttrEqConst("loc", relation.String_("paris"))
	if err := s.AddDomain("R", cond); err != nil {
		t.Fatal(err)
	}
	if got := s.Domains("R"); len(got) != 1 || got[0].String() != "domain R: loc = 'paris'" {
		t.Errorf("Domains = %v", got)
	}
	if len(s.AllDomains()) != 1 {
		t.Error("AllDomains")
	}
	// Implication: structural conjunct containment.
	if !s.DomainImplies(cond, "R") {
		t.Error("identical condition not implied")
	}
	if s.DomainImplies(cond, "Other") {
		t.Error("implied from wrong relation")
	}
	and := algebra.AndAll(algebra.CloneCond(cond), algebra.AttrCmpConst("qty", algebra.OpGt, relation.Int(0)))
	if s.DomainImplies(and, "R") {
		t.Error("stronger condition implied")
	}
	if !s.DomainImplies(algebra.True{}, "R") {
		t.Error("true not implied")
	}
	// Validation against schemata.
	sc := map[string]*relation.Schema{"R": relation.NewSchema("R", "loc:string")}
	if err := s.Validate(sc); err != nil {
		t.Errorf("valid domain rejected: %v", err)
	}
	bad := NewSet()
	bad.AddDomain("Nope", cond)
	if err := bad.Validate(sc); err == nil {
		t.Error("domain on unknown schema accepted")
	}
	outside := NewSet()
	outside.AddDomain("R", algebra.AttrEqConst("zz", relation.Int(1)))
	if err := outside.Validate(sc); err == nil {
		t.Error("domain referencing foreign attribute accepted")
	}
	// State checking.
	r := relation.NewFromSchema(sc["R"])
	r.InsertValues(relation.String_("paris"))
	if err := CheckState(sc, s, map[string]*relation.Relation{"R": r}); err != nil {
		t.Errorf("consistent state rejected: %v", err)
	}
	r.InsertValues(relation.String_("tokyo"))
	if err := CheckState(sc, s, map[string]*relation.Relation{"R": r}); err == nil {
		t.Error("domain violation not detected")
	}
	// Clone copies domains.
	c := s.Clone()
	if len(c.AllDomains()) != 1 {
		t.Error("Clone lost domains")
	}
}

// refCheckState is CheckState as it was before its checks ran side by side
// and the IND check probed: keys, INDs and domains one after the other,
// every IND by projecting both sides, every domain by selecting the tuples
// that satisfy it. Kept as the reference for verdicts and error texts.
func refCheckState(schemas map[string]*relation.Schema, s *Set, rels map[string]*relation.Relation) error {
	names := make([]string, 0, len(schemas))
	for n := range schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		sc, r := schemas[name], rels[name]
		if !sc.HasKey() || r == nil {
			continue
		}
		keyAttrs := sc.KeySet().Sorted()
		if proj := relation.Project(r, keyAttrs...); proj.Len() != r.Len() {
			return fmt.Errorf("constraint: key %v of %s violated: %d tuples share %d key values",
				sc.KeySet(), sc.Name, r.Len(), proj.Len())
		}
	}
	for _, d := range s.inds {
		from, to := rels[d.From], rels[d.To]
		if from == nil || from.IsEmpty() {
			continue
		}
		if to == nil {
			return fmt.Errorf("constraint: %s violated: %s is empty but %s is not", d, d.To, d.From)
		}
		attrs := d.X.Sorted()
		lhs, rhs := relation.Project(from, attrs...), relation.Project(to, attrs...)
		if !lhs.SubsetOf(rhs) {
			diff, err := relation.Diff(lhs, rhs)
			if err != nil {
				return err
			}
			return fmt.Errorf("constraint: %s violated by %d tuple(s), e.g. %v", d, diff.Len(), diff.SortedTuples()[0])
		}
	}
	for _, d := range s.domains {
		r := rels[d.Rel]
		if r == nil {
			continue
		}
		ok := relation.Select(r, func(row relation.Row) bool { return algebra.EvalCond(d.Cond, row) })
		if ok.Len() != r.Len() {
			return fmt.Errorf("constraint: %s violated by %d tuple(s)", d, r.Len()-ok.Len())
		}
	}
	return nil
}

// TestCheckStateMatchesReference: over random states of a schema with two
// keys, two INDs into one relation and two domains — valid ones, and ones
// breaking any subset of the constraints at once, NULLs included — the
// concurrent, probing CheckState returns what the sequential, projecting
// one returned: the same verdict, the same first violation, the same text.
func TestCheckStateMatchesReference(t *testing.T) {
	sch := map[string]*relation.Schema{
		"Dim":  relation.NewSchema("Dim", "k:int", "g:int", "label:string").WithKey("k"),
		"Fact": relation.NewSchema("Fact", "id:int", "k:int", "g:int", "loc:string").WithKey("id"),
		"Side": relation.NewSchema("Side", "k:int", "note:string"),
	}
	cs := NewSet()
	for _, err := range []error{
		cs.AddIND("Fact", "Dim", "k", "g"),
		cs.AddIND("Side", "Dim", "k"),
		cs.AddDomain("Fact", algebra.AttrEqConst("loc", relation.String_("paris"))),
		cs.AddDomain("Side", algebra.AttrCmpConst("k", algebra.OpGt, relation.Int(0))),
		cs.Validate(sch),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(22))
	violated := 0
	for i := 0; i < 400; i++ {
		dim, fact, side := relation.NewFromSchema(sch["Dim"]), relation.NewFromSchema(sch["Fact"]), relation.NewFromSchema(sch["Side"])
		n := 1 + rng.Intn(300) // beyond one page now and then
		for k := 1; k <= n; k++ {
			dim.InsertValues(relation.Int(int64(k)), relation.Int(int64(k%3)), relation.String_("d"))
		}
		pick := func() int64 { return int64(1 + rng.Intn(n)) }
		for id := 1; id <= 2*n; id++ {
			k := pick()
			fact.InsertValues(relation.Int(int64(id)), relation.Int(k), relation.Int(k%3), relation.String_("paris"))
			side.InsertValues(relation.Int(pick()), relation.String_("s"))
		}
		// Each defect with its own coin, so they also occur together and the
		// order of precedence is exercised.
		if rng.Intn(4) == 0 {
			dim.InsertValues(relation.Int(pick()), relation.Int(7), relation.String_("same key, other row"))
		}
		if rng.Intn(4) == 0 {
			fact.InsertValues(relation.Int(pick()), relation.Int(1), relation.Int(1), relation.String_("paris"))
		}
		if rng.Intn(4) == 0 {
			fact.InsertValues(relation.Int(-1), relation.Int(pick()), relation.Int(5), relation.String_("paris")) // k known, (k, g) not
			fact.InsertValues(relation.Int(-2), relation.Null(), relation.Int(0), relation.String_("paris"))
		}
		if rng.Intn(4) == 0 {
			side.InsertValues(relation.Int(int64(n+1+rng.Intn(3))), relation.String_("dangling"))
		}
		if rng.Intn(4) == 0 {
			fact.InsertValues(relation.Int(-3), relation.Int(1), relation.Int(1), relation.String_("tokyo"))
		}
		if rng.Intn(4) == 0 {
			side.InsertValues(relation.Int(0), relation.String_("k not above 0"))
		}
		rels := map[string]*relation.Relation{"Dim": dim, "Fact": fact, "Side": side}
		if rng.Intn(10) == 0 {
			delete(rels, "Dim")
		}
		want, got := refCheckState(sch, cs, rels), CheckState(sch, cs, rels)
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Fatalf("state %d:\nconcurrent: %v\nreference:  %v", i, got, want)
		}
		if want != nil {
			violated++
		}
	}
	if violated < 100 || violated > 390 {
		t.Fatalf("%d of 400 states violated a constraint: the corpus is lopsided", violated)
	}
}
