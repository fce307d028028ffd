package maintain

import (
	"math/rand"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// checkDelta asserts the fundamental delta property for expression e:
// applying the propagated delta to the old value yields exactly the
// expression's value on the post-state.
func checkDelta(t *testing.T, e algebra.Expr, st *catalog.State, u *catalog.Update) {
	t.Helper()
	nu := u.Normalize(st)
	old, err := algebra.EvalCtx(nil, e, st)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	d, err := Propagate(e, st, nu)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	got := old.Clone()
	d.ApplyTo(got)

	post := st.Clone()
	if err := nu.Apply(post); err != nil {
		t.Fatal(err)
	}
	want, err := algebra.EvalCtx(nil, e, post)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("delta wrong for %s under\n%s\ngot  %v\nwant %v", e, nu, got, want)
	}
}

func TestPropagateFigure1Insertion(t *testing.T) {
	// The paper's driving update: insert ⟨Computer, Paula⟩ into Sale.
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
		relation.String_("Computer"), relation.String_("Paula"))

	sold := algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp"))
	d, err := Propagate(sold, st, u.Normalize(st))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one new Sold tuple: ⟨Computer, Paula, 32⟩.
	if d.Del.Len() != 0 {
		t.Errorf("deletions = %v", d.Del)
	}
	ins := d.Ins
	if ins.Len() != 1 {
		t.Fatalf("insertions = %v", ins)
	}
	tu := ins.SortedTuples()[0]
	get := func(a string) relation.Value { return ins.Get(tu, a) }
	if get("item").AsString() != "Computer" || get("clerk").AsString() != "Paula" || get("age").AsInt() != 32 {
		t.Errorf("wrong join tuple: %v", tu)
	}
	checkDelta(t, sold, st, u)
}

func TestPropagateAllOperators(t *testing.T) {
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	u := catalog.NewUpdate().
		MustInsert("Sale", sc.DB, relation.String_("Computer"), relation.String_("Paula")).
		MustInsert("Emp", sc.DB, relation.String_("Zoe"), relation.Int(41)).
		MustDelete("Sale", sc.DB, relation.String_("VCR"), relation.String_("Mary")).
		MustDelete("Emp", sc.DB, relation.String_("John"), relation.Int(25))

	exprs := []algebra.Expr{
		algebra.NewBase("Sale"),
		algebra.NewSelect(algebra.NewBase("Emp"), algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(24))),
		algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
		algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
		algebra.NewUnion(
			algebra.NewProject(algebra.NewBase("Sale"), "clerk"),
			algebra.NewProject(algebra.NewBase("Emp"), "clerk")),
		algebra.NewDiff(
			algebra.NewProject(algebra.NewBase("Emp"), "clerk"),
			algebra.NewProject(algebra.NewBase("Sale"), "clerk")),
		algebra.NewRename(algebra.NewBase("Emp"), map[string]string{"clerk": "person"}),
		algebra.NewProject(
			algebra.NewSelect(
				algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
				algebra.AttrCmpConst("age", algebra.OpLt, relation.Int(40))),
			"item", "clerk"),
		// The complement expression itself.
		algebra.NewDiff(algebra.NewBase("Emp"),
			algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "clerk", "age")),
	}
	for _, e := range exprs {
		checkDelta(t, e, st, u)
	}
}

// TestPropagateRandomized drives the delta rules through random states,
// random updates, and every operator shape, comparing against recompute.
func TestPropagateRandomized(t *testing.T) {
	sc := workload.Figure1(false)
	gen := workload.NewGen(sc.DB, 21)
	exprs := []algebra.Expr{
		algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")),
		algebra.NewDiff(
			algebra.NewProject(algebra.NewBase("Emp"), "clerk"),
			algebra.NewProject(algebra.NewBase("Sale"), "clerk")),
		algebra.NewUnion(
			algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "clerk"),
			algebra.NewProject(algebra.NewBase("Emp"), "clerk")),
		algebra.NewProject(
			algebra.NewSelect(algebra.NewBase("Emp"), algebra.AttrCmpConst("age", algebra.OpGe, relation.Int(25))),
			"clerk"),
		algebra.NewDiff(algebra.NewBase("Emp"),
			algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "clerk", "age")),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		st := gen.State(6 + rng.Intn(10))
		u := gen.Update(st, 1+rng.Intn(5), 1+rng.Intn(5))
		for _, e := range exprs {
			checkDelta(t, e, st, u)
		}
	}
}

// TestPropagateExample23 exercises deltas through the three-relation
// constraint scenario, including the Theorem 2.2 complement definitions.
func TestPropagateExample23(t *testing.T) {
	sc := workload.Example23(workload.E23AllKeysAndINDs, true)
	gen := workload.NewGen(sc.DB, 33)
	// Maintain the view definitions and all complement definitions.
	var exprs []algebra.Expr
	for _, v := range sc.Views.Views() {
		exprs = append(exprs, v.Expr())
	}
	for i := 0; i < 25; i++ {
		st := gen.State(8)
		u := gen.Update(st, 3, 2)
		for _, e := range exprs {
			checkDelta(t, e, st, u)
		}
	}
}

func TestDeltaBookkeeping(t *testing.T) {
	d := Delta{Ins: relation.New("a"), Del: relation.New("a")}
	if !d.IsEmpty() || d.Size() != 0 {
		t.Error("empty delta misreported")
	}
	d.Ins.InsertValues(relation.Int(1))
	d.Del.InsertValues(relation.Int(2))
	if d.IsEmpty() || d.Size() != 2 {
		t.Error("nonempty delta misreported")
	}
	r := relation.New("a")
	r.InsertValues(relation.Int(2))
	r.InsertValues(relation.Int(3))
	d.ApplyTo(r)
	want := relation.New("a")
	want.InsertValues(relation.Int(1))
	want.InsertValues(relation.Int(3))
	if !r.Equal(want) {
		t.Errorf("ApplyTo result = %v", r)
	}
}

func TestDeltaOverlapConvention(t *testing.T) {
	// A tuple in both Del and Ins ends up present (delete-then-insert).
	d := Delta{Ins: relation.New("a"), Del: relation.New("a")}
	d.Ins.InsertValues(relation.Int(1))
	d.Del.InsertValues(relation.Int(1))
	r := relation.New("a")
	r.InsertValues(relation.Int(1))
	d.ApplyTo(r)
	if !r.Contains(relation.Tuple{relation.Int(1)}) {
		t.Error("insert must win over delete")
	}
}

func TestPropagateErrors(t *testing.T) {
	sc := workload.Figure1(false)
	st := workload.Figure1State(sc.DB)
	u := catalog.NewUpdate()
	if _, err := Propagate(algebra.NewBase("Nope"), st, u); err == nil {
		t.Error("unknown base accepted")
	}
	if _, err := Propagate(&algebra.Join{}, st, u); err == nil {
		t.Error("empty join accepted")
	}
}
