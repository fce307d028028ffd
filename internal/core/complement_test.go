package core

import (
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
	"dwcomplement/internal/workload"
)

// corpus builds the verification corpus for a scenario: the empty state
// plus n random consistent states.
func corpus(t *testing.T, db *catalog.Database, n, size int) []algebra.State {
	t.Helper()
	return workload.States(workload.NewGen(db, 7).States(n, size)...)
}

// --- Figure 1 / Example 1.1 -----------------------------------------------

func TestFigure1Complement(t *testing.T) {
	sc := workload.Figure1(false)
	c := MustCompute(sc.DB, sc.Views, Proposition22())

	// The paper's C1 = Emp ∖ π{clerk,age}(Sold) and C2 = Sale ∖ π{item,clerk}(Sold).
	eSale, ok := c.Entry("Sale")
	if !ok {
		t.Fatal("no entry for Sale")
	}
	eEmp, _ := c.Entry("Emp")
	if eSale.AlwaysEmpty || eEmp.AlwaysEmpty {
		t.Error("no constraints: neither complement may be proved empty")
	}

	st := workload.Figure1State(sc.DB)
	// C_Emp on the paper state is exactly {⟨Paula, 32⟩}.
	cEmp := mustEval(t, eEmp.Def, st)
	if cEmp.Len() != 1 || !cEmp.Contains(relation.Tuple{relation.String_("Paula"), relation.Int(32)}) {
		t.Errorf("C_Emp = %v, want {⟨Paula,32⟩}", cEmp)
	}
	// C_Sale on the paper state is empty (every sale has an employee).
	cSale := mustEval(t, eSale.Def, st)
	if !cSale.IsEmpty() {
		t.Errorf("C_Sale = %v, want empty", cSale)
	}

	if err := c.CheckReconstruction(corpus(t, sc.DB, 25, 8)); err != nil {
		t.Errorf("reconstruction: %v", err)
	}
	if err := c.CheckInjectivity(corpus(t, sc.DB, 25, 5)); err != nil {
		t.Errorf("injectivity: %v", err)
	}
}

func TestFigure1InverseShape(t *testing.T) {
	// Example 1.2: Emp = π{clerk,age}(Sold) ∪ C1, Sale = π{item,clerk}(Sold) ∪ C2.
	sc := workload.Figure1(false)
	c := MustCompute(sc.DB, sc.Views, Proposition22())
	eEmp, _ := c.Entry("Emp")
	wantEmp := algebra.NewUnion(
		algebra.NewBase("C_Emp"),
		algebra.NewProject(algebra.NewBase("Sold"), "age", "clerk"))
	if !algebra.Equal(eEmp.Inverse, wantEmp) {
		t.Errorf("inverse of Emp = %s, want %s", eEmp.Inverse, wantEmp)
	}
	// Both inverse expressions reference warehouse names only.
	for _, e := range c.Entries() {
		for b := range algebra.Bases(e.Inverse) {
			if b != "Sold" && !strings.HasPrefix(b, "C_") {
				t.Errorf("inverse of %s references non-warehouse name %q", e.Base, b)
			}
		}
	}
}

// --- Example 2.4: referential integrity makes C_Sale empty ----------------

func TestExample24RefIntegrity(t *testing.T) {
	sc := workload.Figure1(true)
	c := MustCompute(sc.DB, sc.Views, Theorem22())

	eSale, _ := c.Entry("Sale")
	if !eSale.AlwaysEmpty {
		t.Errorf("C_Sale must be proved always empty under π_clerk(Sale) ⊆ π_clerk(Emp); got %s", eSale.Def)
	}
	eEmp, _ := c.Entry("Emp")
	if eEmp.AlwaysEmpty {
		t.Error("C_Emp must not be proved empty (Paula can exist without sales)")
	}
	// Only C_Emp requires storage.
	stored := c.StoredEntries()
	if len(stored) != 1 || stored[0].Base != "Emp" {
		t.Errorf("stored entries = %v", stored)
	}
	// The Sale inverse must not reference the dropped complement.
	if algebra.Bases(eSale.Inverse).Has("C_Sale") {
		t.Errorf("Sale inverse references dropped complement: %s", eSale.Inverse)
	}
	if err := c.CheckReconstruction(corpus(t, sc.DB, 25, 8)); err != nil {
		t.Errorf("reconstruction: %v", err)
	}
}

func TestExample24WithoutEmptinessDetection(t *testing.T) {
	// Same constraints but DetectEmpty off: C_Sale is kept, still correct.
	sc := workload.Figure1(true)
	opts := Theorem22()
	opts.DetectEmpty = false
	c := MustCompute(sc.DB, sc.Views, opts)
	eSale, _ := c.Entry("Sale")
	if eSale.AlwaysEmpty {
		t.Error("DetectEmpty off must not prove emptiness")
	}
	// But on every consistent state it evaluates empty anyway.
	for _, st := range corpus(t, sc.DB, 20, 8) {
		if r := mustEval(t, eSale.Def, st); !r.IsEmpty() {
			t.Errorf("C_Sale nonempty on consistent state: %v", r)
		}
	}
}

// --- Example 2.1: R ⋈ S ⋈ T, adding V2 = S shrinks the complement ---------

func TestExample21(t *testing.T) {
	one := workload.Example21(false)
	c1 := MustCompute(one.DB, one.Views, Proposition22())
	// CR = R ∖ π_XY(V1), CS = S ∖ π_YZ(V1), CT = T ∖ π_Z(V1).
	for base, wantAttrs := range map[string]relation.AttrSet{
		"R": relation.NewAttrSet("X", "Y"),
		"S": relation.NewAttrSet("Y", "Z"),
		"T": relation.NewAttrSet("Z"),
	} {
		e, ok := c1.Entry(base)
		if !ok {
			t.Fatalf("missing entry %s", base)
		}
		d, ok := e.Def.(*algebra.Diff)
		if !ok {
			t.Fatalf("C_%s not a difference: %s", base, e.Def)
		}
		if got, _ := algebra.Attrs(d, one.DB); !got.Equal(wantAttrs) {
			t.Errorf("C_%s attrs = %v", base, got)
		}
	}
	if err := c1.CheckReconstruction(corpus(t, one.DB, 25, 6)); err != nil {
		t.Errorf("reconstruction (V1 only): %v", err)
	}

	two := workload.Example21(true)
	c2 := MustCompute(two.DB, two.Views, Proposition22())
	// With V2 = S in the warehouse, C'_S = S ∖ (π_YZ(V1) ∪ π_YZ(V2)) = S ∖ (… ∪ S) ≡ ∅.
	eS, _ := c2.Entry("S")
	for _, st := range corpus(t, two.DB, 20, 6) {
		if r := mustEval(t, eS.Def, st); !r.IsEmpty() {
			t.Errorf("C'_S nonempty: %v", r)
		}
	}
	if err := c2.CheckReconstruction(corpus(t, two.DB, 25, 6)); err != nil {
		t.Errorf("reconstruction (V1,V2): %v", err)
	}

	// The paper: C' is strictly smaller than C (on the same database).
	// Both scenarios share the same schemata, so states are interchangeable.
	states := corpus(t, two.DB, 40, 6)
	res, err := Compare(c2, c1, states)
	if err != nil {
		t.Fatal(err)
	}
	if res != LeftSmaller {
		t.Errorf("Compare(C', C) = %v, want left strictly smaller", res)
	}
}

func TestExample21EmptinessDetected(t *testing.T) {
	// With DetectEmpty on (no constraints needed), V2 = S is a complete
	// single-base full-projection view of S, so C'_S is proved empty.
	two := workload.Example21(true)
	opts := Proposition22()
	opts.DetectEmpty = true
	c := MustCompute(two.DB, two.Views, opts)
	eS, _ := c.Entry("S")
	if !eS.AlwaysEmpty {
		t.Errorf("C'_S not proved empty: %s", eS.Def)
	}
	if err := c.CheckReconstruction(corpus(t, two.DB, 20, 6)); err != nil {
		t.Errorf("reconstruction: %v", err)
	}
}

// --- Example 2.2: Prop 2.2 is not minimal for PSJ views -------------------

func TestExample22NonMinimal(t *testing.T) {
	sc := workload.Example22()
	c := MustCompute(sc.DB, sc.Views, Proposition22())
	eR, _ := c.Entry("R")
	// Proposition 2.2 yields C_R = R ∖ V3 (V1, V2 are projections of R and
	// contribute nothing to Rπ).
	want := algebra.NewDiff(algebra.NewBase("R"),
		algebra.NewProject(algebra.NewSelect(algebra.NewBase("R"),
			algebra.AttrEqConst("B", relation.Int(0))), "A", "B", "C"))
	gotR := mustEval(t, eR.Def, mustState22(t, sc.DB))
	wantR := mustEval(t, want, mustState22(t, sc.DB))
	if !gotR.Equal(wantR) {
		t.Errorf("C_R = %s evaluates differently from R ∖ V3", eR.Def)
	}
	if err := c.CheckReconstruction(corpus(t, sc.DB, 25, 8)); err != nil {
		t.Errorf("reconstruction: %v", err)
	}

	// The paper's smaller complement
	//   C'_R = (R ⋈ π_AB((V1 ⋈ V2) ∖ R)) ∖ V3
	// is also a complement; verify its reconstruction identity and that it
	// is strictly below C_R on a witness corpus.
	v1 := algebra.NewProject(algebra.NewBase("R"), "A", "B")
	v2 := algebra.NewProject(algebra.NewBase("R"), "B", "C")
	v3 := algebra.NewProject(algebra.NewSelect(algebra.NewBase("R"),
		algebra.AttrEqConst("B", relation.Int(0))), "A", "B", "C")
	cPrime := algebra.NewDiff(
		algebra.NewJoin(algebra.NewBase("R"),
			algebra.NewProject(algebra.NewDiff(algebra.NewJoin(v1, v2), algebra.NewBase("R")), "A", "B")),
		v3)
	states := corpus(t, sc.DB, 40, 8)
	less, err := view.SetLess([]algebra.Expr{cPrime}, []algebra.Expr{eR.Def}, states)
	if err != nil {
		t.Fatal(err)
	}
	if !less {
		t.Error("paper's C'_R not strictly smaller than Prop 2.2's C_R on the corpus")
	}
	// And C'_R is a complement: R = C'_R ∪ V3 ∪ ((V1 ∖ π_AB(C'_R ∪ V3)) ⋈ (V2 ∖ π_BC(C'_R ∪ V3))).
	cuv := algebra.NewUnion(cPrime, v3)
	reconstruct := algebra.NewUnion(cuv,
		algebra.NewJoin(
			algebra.NewDiff(v1, algebra.NewProject(cuv, "A", "B")),
			algebra.NewDiff(v2, algebra.NewProject(cuv, "B", "C"))))
	for i, st := range states {
		got := mustEval(t, reconstruct, st)
		wantRel, _ := st.Relation("R")
		if !got.Equal(wantRel) {
			t.Fatalf("state %d: paper's C'_R reconstruction identity fails:\ngot %v\nwant %v", i, got, wantRel)
		}
	}
}

func mustState22(t *testing.T, db *catalog.Database) *catalog.State {
	t.Helper()
	st := db.NewState()
	vals := [][3]int64{{1, 0, 1}, {1, 2, 3}, {2, 2, 3}, {4, 5, 6}, {4, 0, 6}}
	for _, v := range vals {
		st.MustInsert("R", relation.Int(v[0]), relation.Int(v[1]), relation.Int(v[2]))
	}
	return st
}

// --- Example 2.3: keys and INDs -------------------------------------------

func TestExample23NoConstraints(t *testing.T) {
	sc := workload.Example23(workload.E23None, true)
	c := MustCompute(sc.DB, sc.Views, Proposition22())
	// "V3 and V4 are of no use": C1 = R1 ∖ π_ABC(V1), C2 = R2 ∖ π_ACD(V1),
	// C3 = R3 ∖ V2 ≡ ∅ on every state.
	st := state23(t, sc.DB)
	e1, _ := c.Entry("R1")
	wantC1 := algebra.NewDiff(algebra.NewBase("R1"),
		algebra.NewProject(algebra.NewJoin(algebra.NewBase("R1"), algebra.NewBase("R2")), "A", "B", "C"))
	if !mustEval(t, e1.Def, st).Equal(mustEval(t, wantC1, st)) {
		t.Errorf("C_R1 = %s", e1.Def)
	}
	e3, _ := c.Entry("R3")
	if r := mustEval(t, e3.Def, st); !r.IsEmpty() {
		t.Errorf("C_R3 = %v, want empty (V2 = R3)", r)
	}
	if err := c.CheckReconstruction(corpus(t, sc.DB, 25, 6)); err != nil {
		t.Errorf("reconstruction: %v", err)
	}
}

func TestExample23KeyR1(t *testing.T) {
	// "Assume now that A is a key for R1. Then R1 = R1^ir = V3 ⋈ V4, and so
	// C1 = ∅."
	sc := workload.Example23(workload.E23KeyR1, true)
	opts := Options{UseKeys: true, DetectEmpty: true}
	c := MustCompute(sc.DB, sc.Views, opts)
	e1, _ := c.Entry("R1")
	if !e1.AlwaysEmpty {
		t.Errorf("C_R1 not proved empty with key A; covers: %v", e1.Covers)
	}
	// The cover {V3, V4} must be among the covers.
	found := false
	for _, cv := range e1.Covers {
		if cv.String() == "{V3, V4}" {
			found = true
		}
	}
	if !found {
		t.Errorf("cover {V3, V4} missing: %v", e1.Covers)
	}
	// R2's complement is unchanged: not empty in general.
	e2, _ := c.Entry("R2")
	if e2.AlwaysEmpty {
		t.Error("C_R2 must not be proved empty")
	}
	if err := c.CheckReconstruction(corpus(t, sc.DB, 25, 6)); err != nil {
		t.Errorf("reconstruction: %v", err)
	}
}

func TestExample23CoversListing(t *testing.T) {
	// The paper's C^ind_{R1} for the full view set with all keys and INDs:
	// {{V1}, {V3, V4}, {π_AB(R3), V4}, {V3, π_AC(R2)}, {π_AB(R3), π_AC(R2)}}.
	sc := workload.Example23(workload.E23AllKeysAndINDs, true)
	c := MustCompute(sc.DB, sc.Views, Theorem22())
	e1, _ := c.Entry("R1")
	want := map[string]bool{
		"{V1}":                     true,
		"{V3, V4}":                 true,
		"{V4, π{A,B}(R3)}":         true,
		"{V3, π{A,C}(R2)}":         true,
		"{π{A,B}(R3), π{A,C}(R2)}": true,
	}
	got := map[string]bool{}
	for _, cv := range e1.Covers {
		got[cv.String()] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("missing cover %s; got %v", w, e1.Covers)
		}
	}
	if len(got) != len(want) {
		t.Errorf("cover count = %d, want %d: %v", len(got), len(want), e1.Covers)
	}
	if err := c.CheckReconstruction(corpus(t, sc.DB, 25, 6)); err != nil {
		t.Errorf("reconstruction: %v", err)
	}
}

func TestExample23INDEffect(t *testing.T) {
	// The continuation: V' = {V1, V3}, keys A for all, IND π_AC(R2) ⊆ π_AC(R1).
	// Then C2 = R2 ∖ π_ACD(V1), C3 = R3 (no view involves R3), and
	// R1^ir = π_ABC(V1) ∪ π_ABC(V3 ⋈ π_AC(R2)) with R2 expanded to its
	// inverse in warehouse terms.
	sc := workload.Example23(workload.E23AllKeysAndINDs, false)
	c := MustCompute(sc.DB, sc.Views, Theorem22())

	e1, _ := c.Entry("R1")
	// Covers of R1: {V1} and {V3, π_AC(R2)}.
	wantCovers := map[string]bool{"{V1}": true, "{V3, π{A,C}(R2)}": true}
	for _, cv := range e1.Covers {
		if !wantCovers[cv.String()] {
			t.Errorf("unexpected cover %s", cv)
		}
		delete(wantCovers, cv.String())
	}
	for w := range wantCovers {
		t.Errorf("missing cover %s", w)
	}
	// R1's inverse must reference only warehouse names (V1, V3, C_*).
	for b := range algebra.Bases(e1.Inverse) {
		if b != "V1" && b != "V3" && !strings.HasPrefix(b, "C_") {
			t.Errorf("R1 inverse references %q: %s", b, e1.Inverse)
		}
	}
	// R3 has no views over it: its complement is the full copy.
	e3, _ := c.Entry("R3")
	if _, isBase := e3.Def.(*algebra.Base); !isBase {
		t.Errorf("C_R3 = %s, want full copy of R3", e3.Def)
	}
	if err := c.CheckReconstruction(corpus(t, sc.DB, 30, 6)); err != nil {
		t.Errorf("reconstruction: %v", err)
	}
	if err := c.CheckInjectivity(corpus(t, sc.DB, 25, 4)); err != nil {
		t.Errorf("injectivity: %v", err)
	}
}

func state23(t *testing.T, db *catalog.Database) *catalog.State {
	t.Helper()
	st := db.NewState()
	st.MustInsert("R1", relation.Int(1), relation.Int(10), relation.Int(100))
	st.MustInsert("R1", relation.Int(2), relation.Int(20), relation.Int(200))
	st.MustInsert("R2", relation.Int(1), relation.Int(100), relation.Int(1000))
	st.MustInsert("R2", relation.Int(3), relation.Int(300), relation.Int(3000))
	st.MustInsert("R3", relation.Int(1), relation.Int(10))
	return st
}

// --- Options and error paths ----------------------------------------------

func TestOptionsValidation(t *testing.T) {
	sc := workload.Figure1(false)
	if _, err := Compute(sc.DB, sc.Views, Options{UseINDs: true}); err == nil {
		t.Error("UseINDs without UseKeys accepted")
	}
}

func TestComplementNameClash(t *testing.T) {
	db := catalog.NewDatabase().
		MustAddSchema(relation.NewSchema("R", "a:int")).
		MustAddSchema(relation.NewSchema("C_R", "a:int"))
	vs := view.MustNewSet(db, view.NewPSJ("V", []string{"a"}, nil, "R"))
	if _, err := Compute(db, vs, Proposition22()); err == nil {
		t.Error("complement/base name clash accepted")
	}
	db2 := catalog.NewDatabase().MustAddSchema(relation.NewSchema("R", "a:int"))
	vs2 := view.MustNewSet(db2, view.NewPSJ("C_R", []string{"a"}, nil, "R"))
	if _, err := Compute(db2, vs2, Proposition22()); err == nil {
		t.Error("complement/view name clash accepted")
	}
	// A custom prefix resolves the clash.
	vs3 := view.MustNewSet(db2, view.NewPSJ("C_R", []string{"a"}, nil, "R"))
	opts := Proposition22()
	opts.NamePrefix = "Aux_"
	if _, err := Compute(db2, vs3, opts); err != nil {
		t.Errorf("custom prefix rejected: %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	sc := workload.Figure1(true)
	c := MustCompute(sc.DB, sc.Views, Theorem22())
	s := c.String()
	for _, want := range []string{"C_Emp", "Sold", "always empty"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestInverseMapAndResolver(t *testing.T) {
	sc := workload.Figure1(true)
	c := MustCompute(sc.DB, sc.Views, Theorem22())
	inv := c.InverseMap()
	if len(inv) != 2 {
		t.Fatalf("InverseMap size = %d", len(inv))
	}
	res := c.Resolver()
	if _, ok := res.BaseAttrs("Sold"); !ok {
		t.Error("resolver missing view")
	}
	if _, ok := res.BaseAttrs("C_Emp"); !ok {
		t.Error("resolver missing stored complement")
	}
	if _, ok := res.BaseAttrs("C_Sale"); ok {
		t.Error("resolver exposes dropped complement")
	}
}

func TestComplementAccessors(t *testing.T) {
	sc := workload.Figure1(false)
	c := MustCompute(sc.DB, sc.Views, Proposition22())
	if c.Database() != sc.DB {
		t.Error("Database accessor")
	}
	if c.Views() != sc.Views {
		t.Error("Views accessor")
	}
	if c.Options() != Proposition22() {
		t.Error("Options accessor")
	}
	for _, r := range []CompareResult{Incomparable, Equivalent, LeftSmaller, RightSmaller} {
		if r.String() == "" {
			t.Error("CompareResult.String empty")
		}
	}
}

func TestCompareOutcomes(t *testing.T) {
	// Equivalent: a complement compared against itself.
	sc := workload.Figure1(false)
	c := MustCompute(sc.DB, sc.Views, Proposition22())
	states := corpus(t, sc.DB, 20, 6)
	res, err := Compare(c, c, states)
	if err != nil || res != Equivalent {
		t.Errorf("self comparison = %v, %v", res, err)
	}
	// RightSmaller: flip the E4 comparison.
	one := workload.Example21(false)
	two := workload.Example21(true)
	c1 := MustCompute(one.DB, one.Views, Proposition22())
	c2 := MustCompute(two.DB, two.Views, Proposition22())
	states2 := corpus(t, two.DB, 30, 6)
	res, err = Compare(c1, c2, states2)
	if err != nil || res != RightSmaller {
		t.Errorf("Compare(C, C') = %v, %v, want right strictly smaller", res, err)
	}
}

// mustEval evaluates an expression the test has already validated.
func mustEval(t testing.TB, e algebra.Expr, st algebra.State) *relation.Relation {
	t.Helper()
	r, err := algebra.EvalCtx(nil, e, st)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
