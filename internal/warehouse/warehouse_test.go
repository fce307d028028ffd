package warehouse

import (
	"context"
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

func corpus(t *testing.T, db *catalog.Database, n, size int) []algebra.State {
	t.Helper()
	return workload.States(workload.NewGen(db, 3).States(n, size)...)
}

func buildFigure1(t *testing.T, withRefInt bool) (*Warehouse, workload.Scenario) {
	t.Helper()
	sc := workload.Figure1(withRefInt)
	opts := core.Proposition22()
	if withRefInt {
		opts = core.Theorem22()
	}
	w, err := Build(sc.DB, sc.Views, opts, workload.Figure1State(sc.DB))
	if err != nil {
		t.Fatal(err)
	}
	return w, sc
}

func TestBuildAndState(t *testing.T) {
	w, _ := buildFigure1(t, false)
	names := w.Names()
	want := []string{"C_Emp", "C_Sale", "Sold"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names = %v, want %v", names, want)
		}
	}
	sold, ok := w.Relation("Sold")
	if !ok || sold.Len() != 3 {
		t.Errorf("Sold = %v", sold)
	}
	cEmp, _ := w.Relation("C_Emp")
	if cEmp.Len() != 1 { // Paula
		t.Errorf("C_Emp = %v", cEmp)
	}
	// Size = 3 (Sold) + 1 (C_Emp) + 0 (C_Sale).
	if w.Size() != 4 {
		t.Errorf("Size = %d", w.Size())
	}
}

func TestReconstructBases(t *testing.T) {
	w, sc := buildFigure1(t, false)
	bases, err := w.ReconstructBases()
	if err != nil {
		t.Fatal(err)
	}
	st := workload.Figure1State(sc.DB)
	for _, name := range []string{"Sale", "Emp"} {
		orig, _ := st.Relation(name)
		if !bases[name].Equal(orig) {
			t.Errorf("reconstructed %s =\n%s\nwant\n%s", name, bases[name], orig)
		}
	}
}

// TestExample12QueryTranslation reproduces Example 1.2 and the Section 3
// walkthrough: the union-of-clerks query and the ages-of-computer-sellers
// query, both answered from the warehouse alone.
func TestExample12QueryTranslation(t *testing.T) {
	w, sc := buildFigure1(t, false)

	q := algebra.NewUnion(
		algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
		algebra.NewProject(algebra.NewBase("Emp"), "clerk"))
	qHat, err := w.TranslateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// The translated query must reference warehouse names only.
	for b := range algebra.Bases(qHat) {
		if b != "Sold" && !strings.HasPrefix(b, "C_") {
			t.Errorf("Q̂ references %q: %s", b, qHat)
		}
	}
	got, _, err := w.AnswerContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New("clerk")
	for _, c := range []string{"Mary", "John", "Paula"} {
		want.InsertValues(relation.String_(c))
	}
	if !got.Equal(want) {
		t.Errorf("Q̂ answer = %v, want all three clerks", got)
	}

	// Section 3's example: ages of clerks that sold computers.
	q2 := algebra.NewProject(
		algebra.NewJoin(
			algebra.NewSelect(algebra.NewBase("Sale"),
				algebra.AttrEqConst("item", relation.String_("PC"))),
			algebra.NewBase("Emp")),
		"age")
	got2, _, err := w.AnswerContext(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 1 || !got2.Contains(relation.Tuple{relation.Int(25)}) {
		t.Errorf("ages = %v, want {25}", got2)
	}

	_ = sc
}

// TestTheorem31 verifies Q(d) = Q̂(W(d)) over random states for a battery
// of query shapes — the commuting diagram of Figure 2.
func TestTheorem31(t *testing.T) {
	w, sc := buildFigure1(t, false)
	queries := []algebra.Expr{
		algebra.NewBase("Sale"),
		algebra.NewBase("Emp"),
		algebra.NewUnion(
			algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
			algebra.NewProject(algebra.NewBase("Emp"), "clerk")),
		algebra.NewDiff(
			algebra.NewProject(algebra.NewBase("Emp"), "clerk"),
			algebra.NewProject(algebra.NewBase("Sale"), "clerk")),
		algebra.NewProject(
			algebra.NewSelect(
				algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
				algebra.AttrCmpConst("age", algebra.OpLt, relation.Int(30))),
			"item", "clerk"),
		algebra.NewRename(algebra.NewBase("Emp"), map[string]string{"clerk": "person"}),
		algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
	}
	if err := w.CheckQueryIndependence(queries, corpus(t, sc.DB, 30, 8)); err != nil {
		t.Error(err)
	}
}

// TestTheorem31WithConstraints runs the same battery on the Theorem 2.2
// complement (referential integrity, dropped C_Sale).
func TestTheorem31WithConstraints(t *testing.T) {
	w, sc := buildFigure1(t, true)
	queries := []algebra.Expr{
		algebra.NewBase("Sale"),
		algebra.NewBase("Emp"),
		algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
		algebra.NewDiff(
			algebra.NewProject(algebra.NewBase("Emp"), "clerk"),
			algebra.NewProject(algebra.NewBase("Sale"), "clerk")),
	}
	if err := w.CheckQueryIndependence(queries, corpus(t, sc.DB, 30, 8)); err != nil {
		t.Error(err)
	}
}

// TestExample12Refutation proves that the UN-augmented warehouse {Sold}
// cannot answer Example 1.2's query: two states with the same Sold but
// different answers.
func TestExample12Refutation(t *testing.T) {
	sc := workload.Figure1(false)
	q := algebra.NewUnion(
		algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
		algebra.NewProject(algebra.NewBase("Emp"), "clerk"))
	soldDef := algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp"))

	// The paper's state and the same state without Paula have identical
	// Sold but different Q answers.
	full := workload.Figure1State(sc.DB)
	noPaula := full.Clone()
	noPaula.MustRelation("Emp").Delete(relation.Tuple{relation.String_("Paula"), relation.Int(32)})
	states := append(corpus(t, sc.DB, 20, 6), full, noPaula)

	wn, found, err := FindAnswerabilityWitness(q, map[string]algebra.Expr{"Sold": soldDef}, states)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no witness: {Sold} appeared able to answer Q")
	}
	if !strings.Contains(wn.String(), "identical warehouse images") {
		t.Errorf("witness description: %s", wn)
	}

	// With the complement added, no witness can exist (W is injective).
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	defs := map[string]algebra.Expr{"Sold": soldDef}
	for _, e := range comp.StoredEntries() {
		defs[e.Name] = e.Def
	}
	_, found, err = FindAnswerabilityWitness(q, defs, states)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("witness found against the augmented warehouse")
	}
}

func TestTranslateQueryErrors(t *testing.T) {
	w, _ := buildFigure1(t, false)
	// Invalid over D.
	if _, err := w.TranslateQuery(algebra.NewBase("Nope")); err == nil {
		t.Error("unknown base accepted")
	}
	if _, err := w.TranslateQuery(algebra.NewUnion(algebra.NewBase("Sale"), algebra.NewBase("Emp"))); err == nil {
		t.Error("invalid union accepted")
	}
}

func TestTranslatedQueriesSimplify(t *testing.T) {
	// Under referential integrity, translating "Sale" must not mention the
	// dropped complement and should reduce to a projection of Sold.
	w, _ := buildFigure1(t, true)
	qHat, err := w.TranslateQuery(algebra.NewBase("Sale"))
	if err != nil {
		t.Fatal(err)
	}
	if algebra.Bases(qHat).Has("C_Sale") {
		t.Errorf("translated Sale references dropped complement: %s", qHat)
	}
	want := algebra.NewProject(algebra.NewBase("Sold"), "clerk", "item")
	if !algebra.Equal(qHat, want) {
		t.Errorf("translated Sale = %s, want %s", qHat, want)
	}
}
