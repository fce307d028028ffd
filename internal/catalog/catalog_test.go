package catalog

import (
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/relation"
)

// figure1DB builds the paper's Figure 1 database: Sale(item, clerk) and
// Emp(clerk, age) with key clerk.
func figure1DB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase().
		MustAddSchema(relation.NewSchema("Sale", "item:string", "clerk:string")).
		MustAddSchema(relation.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	return db
}

func figure1State(t *testing.T, db *Database) *State {
	t.Helper()
	st := db.NewState()
	st.MustInsert("Sale", relation.String_("TV set"), relation.String_("Mary"))
	st.MustInsert("Sale", relation.String_("VCR"), relation.String_("Mary"))
	st.MustInsert("Sale", relation.String_("PC"), relation.String_("John"))
	st.MustInsert("Emp", relation.String_("Mary"), relation.Int(23))
	st.MustInsert("Emp", relation.String_("John"), relation.Int(25))
	st.MustInsert("Emp", relation.String_("Paula"), relation.Int(32))
	return st
}

func TestDatabaseConstruction(t *testing.T) {
	db := figure1DB(t)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := db.Names(); len(got) != 2 || got[0] != "Sale" || got[1] != "Emp" {
		t.Errorf("Names = %v", got)
	}
	if _, ok := db.Schema("Emp"); !ok {
		t.Error("Schema lookup failed")
	}
	if a, ok := db.BaseAttrs("Sale"); !ok || !a.Equal(relation.NewAttrSet("item", "clerk")) {
		t.Errorf("BaseAttrs = %v, %v", a, ok)
	}
	if _, ok := db.BaseAttrs("Nope"); ok {
		t.Error("BaseAttrs resolved unknown name")
	}
	if err := db.AddSchema(relation.NewSchema("Sale", "x")); err == nil {
		t.Error("duplicate schema accepted")
	}
	s := db.String()
	if !strings.Contains(s, "relation Sale(item string, clerk string)") ||
		!strings.Contains(s, "key(clerk)") {
		t.Errorf("String = %q", s)
	}
}

func TestINDAndForeignKey(t *testing.T) {
	db := figure1DB(t)
	if err := db.AddIND("Sale", "Emp", "clerk"); err != nil {
		t.Fatal(err)
	}
	if db.Constraints().Len() != 1 {
		t.Error("IND not recorded")
	}

	fk := figure1DB(t)
	if err := fk.AddForeignKey("Sale", []string{"clerk"}, "Emp"); err != nil {
		t.Fatal(err)
	}
	if !fk.Constraints().Implies("Sale", "Emp", relation.NewAttrSet("clerk")) {
		t.Error("foreign key did not record IND")
	}
	if err := fk.AddForeignKey("Sale", []string{"item"}, "Emp"); err == nil {
		t.Error("foreign key with wrong attributes accepted")
	}
	if err := fk.AddForeignKey("Sale", []string{"clerk"}, "Nope"); err == nil {
		t.Error("foreign key to unknown schema accepted")
	}
	noKey := NewDatabase().
		MustAddSchema(relation.NewSchema("A", "x")).
		MustAddSchema(relation.NewSchema("B", "x"))
	if err := noKey.AddForeignKey("A", []string{"x"}, "B"); err == nil {
		t.Error("foreign key to keyless schema accepted")
	}
}

func TestStateInsertTypeChecking(t *testing.T) {
	db := figure1DB(t)
	st := db.NewState()
	if _, err := st.Insert("Emp", relation.Tuple{relation.String_("Mary"), relation.String_("old")}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := st.Insert("Emp", relation.Tuple{relation.String_("Mary")}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := st.Insert("Nope", relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("unknown relation accepted")
	}
	ok, err := st.Insert("Emp", relation.Tuple{relation.String_("Mary"), relation.Int(23)})
	if err != nil || !ok {
		t.Errorf("valid insert failed: %v %v", ok, err)
	}
	ok, err = st.Insert("Emp", relation.Tuple{relation.String_("Mary"), relation.Int(23)})
	if err != nil || ok {
		t.Error("duplicate insert must report false")
	}
}

func TestStateEvalIntegration(t *testing.T) {
	db := figure1DB(t)
	st := figure1State(t, db)
	sold := mustEval(t, algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), st)
	if sold.Len() != 3 {
		t.Errorf("|Sold| = %d", sold.Len())
	}
}

func TestStateCloneEqualFingerprint(t *testing.T) {
	db := figure1DB(t)
	st := figure1State(t, db)
	c := st.Clone()
	if !st.Equal(c) || st.Fingerprint() != c.Fingerprint() {
		t.Error("clone differs")
	}
	c.MustInsert("Emp", relation.String_("Zoe"), relation.Int(40))
	if st.Equal(c) || st.Fingerprint() == c.Fingerprint() {
		t.Error("state mutation not reflected")
	}
	if st.Size() != 6 || c.Size() != 7 {
		t.Errorf("Size = %d, %d", st.Size(), c.Size())
	}
}

func TestStateCheck(t *testing.T) {
	db := figure1DB(t)
	db.MustAddIND("Sale", "Emp", "clerk")
	st := figure1State(t, db)
	if err := st.Check(); err != nil {
		t.Errorf("consistent state rejected: %v", err)
	}
	st.MustInsert("Sale", relation.String_("Car"), relation.String_("Ghost"))
	if err := st.Check(); err == nil {
		t.Error("IND violation not detected")
	}
}

func TestUpdateApply(t *testing.T) {
	db := figure1DB(t)
	st := figure1State(t, db)
	u := NewUpdate().
		MustInsert("Sale", db, relation.String_("Computer"), relation.String_("Paula")).
		MustDelete("Sale", db, relation.String_("VCR"), relation.String_("Mary"))
	if u.IsEmpty() || u.Size() != 2 {
		t.Errorf("update bookkeeping wrong: %v %d", u.IsEmpty(), u.Size())
	}
	if got := u.Touched(); len(got) != 1 || got[0] != "Sale" {
		t.Errorf("Touched = %v", got)
	}
	if err := u.Apply(st); err != nil {
		t.Fatal(err)
	}
	sale := st.MustRelation("Sale")
	if !sale.Contains(relation.Tuple{relation.String_("Computer"), relation.String_("Paula")}) {
		t.Error("insert lost")
	}
	if sale.Contains(relation.Tuple{relation.String_("VCR"), relation.String_("Mary")}) {
		t.Error("delete lost")
	}
	if sale.Len() != 3 {
		t.Errorf("|Sale| = %d", sale.Len())
	}
}

func TestUpdateNormalize(t *testing.T) {
	db := figure1DB(t)
	st := figure1State(t, db)
	u := NewUpdate().
		// Already present: should be dropped.
		MustInsert("Sale", db, relation.String_("PC"), relation.String_("John")).
		// Genuinely new.
		MustInsert("Sale", db, relation.String_("Computer"), relation.String_("Paula")).
		// Absent: delete is dropped.
		MustDelete("Sale", db, relation.String_("Nothing"), relation.String_("Nobody")).
		// Present: kept.
		MustDelete("Sale", db, relation.String_("VCR"), relation.String_("Mary"))
	n := u.Normalize(st)
	if n.Size() != 2 {
		t.Fatalf("normalized size = %d, want 2\n%s", n.Size(), n)
	}
	ins, del := n.Inserts("Sale"), n.Deletes("Sale")
	if ins == nil || ins.Len() != 1 || !ins.Contains(relation.Tuple{relation.String_("Computer"), relation.String_("Paula")}) {
		t.Errorf("normalized inserts = %v", ins)
	}
	if del == nil || del.Len() != 1 || !del.Contains(relation.Tuple{relation.String_("VCR"), relation.String_("Mary")}) {
		t.Errorf("normalized deletes = %v", del)
	}
}

func TestUpdateNormalizeInsertDeleteConflict(t *testing.T) {
	db := figure1DB(t)
	st := figure1State(t, db)
	// Insert+delete of an absent tuple: both dropped.
	u := NewUpdate().
		MustInsert("Sale", db, relation.String_("X"), relation.String_("Y")).
		MustDelete("Sale", db, relation.String_("X"), relation.String_("Y"))
	if n := u.Normalize(st); !n.IsEmpty() {
		t.Errorf("conflicting changes on absent tuple not dropped:\n%s", n)
	}
	// Insert+delete of a present tuple: also a no-op.
	v := NewUpdate().
		MustInsert("Sale", db, relation.String_("PC"), relation.String_("John")).
		MustDelete("Sale", db, relation.String_("PC"), relation.String_("John"))
	if n := v.Normalize(st); !n.IsEmpty() {
		t.Errorf("conflicting changes on present tuple not dropped:\n%s", n)
	}
}

func TestApplyChecked(t *testing.T) {
	db := figure1DB(t)
	db.MustAddIND("Sale", "Emp", "clerk")
	st := figure1State(t, db)
	before := st.Fingerprint()

	bad := NewUpdate().MustInsert("Sale", db, relation.String_("Car"), relation.String_("Ghost"))
	if err := bad.ApplyChecked(st); err == nil {
		t.Error("constraint-violating update accepted")
	}
	if st.Fingerprint() != before {
		t.Error("failed ApplyChecked mutated the state")
	}

	good := NewUpdate().MustInsert("Sale", db, relation.String_("Car"), relation.String_("Mary"))
	if err := good.ApplyChecked(st); err != nil {
		t.Errorf("valid update rejected: %v", err)
	}
	if !st.MustRelation("Sale").Contains(relation.Tuple{relation.String_("Car"), relation.String_("Mary")}) {
		t.Error("valid update not applied")
	}
}

func TestUpdateString(t *testing.T) {
	db := figure1DB(t)
	u := NewUpdate().
		MustInsert("Sale", db, relation.String_("Computer"), relation.String_("Paula")).
		MustDelete("Emp", db, relation.String_("Mary"), relation.Int(23))
	s := u.String()
	if !strings.Contains(s, "+Sale('Computer', 'Paula')") || !strings.Contains(s, "-Emp('Mary', 23)") {
		t.Errorf("String = %q", s)
	}
}

func TestUpdateErrors(t *testing.T) {
	db := figure1DB(t)
	u := NewUpdate()
	if err := u.Insert("Nope", db, relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := u.Insert("Sale", db, relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := u.Delete("Sale", db, relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("delete arity mismatch accepted")
	}
}

func TestStateString(t *testing.T) {
	db := figure1DB(t)
	st := figure1State(t, db)
	s := st.String()
	for _, want := range []string{"Sale:", "Emp:", "Paula", "TV set"} {
		if !strings.Contains(s, want) {
			t.Errorf("State.String missing %q", want)
		}
	}
}

func TestAccessorsAndDelete(t *testing.T) {
	db := figure1DB(t)
	if len(db.Schemas()) != 2 {
		t.Error("Schemas accessor")
	}
	st := figure1State(t, db)
	if st.Database() != db {
		t.Error("Database accessor")
	}
	ok, err := st.Delete("Emp", relation.Tuple{relation.String_("Paula"), relation.Int(32)})
	if err != nil || !ok {
		t.Errorf("Delete = %v, %v", ok, err)
	}
	ok, err = st.Delete("Emp", relation.Tuple{relation.String_("Paula"), relation.Int(32)})
	if err != nil || ok {
		t.Error("double delete reported present")
	}
	if _, err := st.Delete("Nope", relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("delete from unknown relation accepted")
	}
	// Domain declaration through the catalog.
	if err := db.AddDomain("Emp", algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(0))); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDomain("Nope", algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(0))); err == nil {
		t.Error("domain on unknown relation accepted")
	}
	assertPanicsCatalog(t, func() {
		db.MustAddDomain("Nope", algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(0)))
	})
	assertPanicsCatalog(t, func() { db.MustAddSchema(relation.NewSchema("Emp", "x")) })
	assertPanicsCatalog(t, func() { db.MustAddIND("Nope", "Emp", "clerk") })
	assertPanicsCatalog(t, func() { figure1State(t, db).MustInsert("Nope", relation.Int(1)) })
	assertPanicsCatalog(t, func() { NewUpdate().MustInsert("Nope", db, relation.Int(1)) })
	assertPanicsCatalog(t, func() { NewUpdate().MustDelete("Nope", db, relation.Int(1)) })
}

func assertPanicsCatalog(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
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
