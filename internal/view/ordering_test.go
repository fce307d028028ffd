package view

import (
	"math/rand"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
)

// sampleStates builds a corpus of random states over Figure 1's database,
// always including the empty state and the paper's concrete state.
func sampleStates(t *testing.T, db *catalog.Database, n int) []algebra.State {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	items := []string{"TV set", "VCR", "PC", "Computer", "Radio"}
	clerks := []string{"Mary", "John", "Paula", "Zoe", "Max"}
	states := []algebra.State{db.NewState()}
	paper := db.NewState().
		MustInsert("Sale", relation.String_("TV set"), relation.String_("Mary")).
		MustInsert("Sale", relation.String_("VCR"), relation.String_("Mary")).
		MustInsert("Sale", relation.String_("PC"), relation.String_("John")).
		MustInsert("Emp", relation.String_("Mary"), relation.Int(23)).
		MustInsert("Emp", relation.String_("John"), relation.Int(25)).
		MustInsert("Emp", relation.String_("Paula"), relation.Int(32))
	states = append(states, paper)
	for i := 0; i < n; i++ {
		st := db.NewState()
		for j := 0; j < rng.Intn(8); j++ {
			st.MustInsert("Sale",
				relation.String_(items[rng.Intn(len(items))]),
				relation.String_(clerks[rng.Intn(len(clerks))]))
		}
		used := map[string]bool{}
		for j := 0; j < rng.Intn(6); j++ {
			c := clerks[rng.Intn(len(clerks))]
			if used[c] {
				continue // respect Emp's key
			}
			used[c] = true
			st.MustInsert("Emp", relation.String_(c), relation.Int(int64(20+rng.Intn(30))))
		}
		states = append(states, st)
	}
	return states
}

func TestExprLeq(t *testing.T) {
	db := figure1DB(t)
	states := sampleStates(t, db, 30)

	// π_clerk(Sale ⋈ Emp) ≤ π_clerk(Emp) always (join clerks worked for Emp).
	u := algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "clerk")
	v := algebra.NewProject(algebra.NewBase("Emp"), "clerk")
	le, err := ExprLeq(u, v, states)
	if err != nil || !le {
		t.Errorf("join ≤ projection refuted: %v %v", le, err)
	}
	// The converse is refuted by the paper state (Paula has no sale).
	ge, err := ExprLeq(v, u, states)
	if err != nil || ge {
		t.Errorf("converse not refuted: %v %v", ge, err)
	}
	// Strictness with witness.
	less, witness, err := ExprLess(u, v, states)
	if err != nil || !less || witness < 0 {
		t.Errorf("ExprLess = %v, %d, %v", less, witness, err)
	}
	// An expression is not strictly smaller than itself.
	self, _, err := ExprLess(u, u, states)
	if err != nil || self {
		t.Errorf("u < u reported: %v %v", self, err)
	}
}

func TestExprLeqSchemaMismatch(t *testing.T) {
	db := figure1DB(t)
	states := sampleStates(t, db, 3)
	u := algebra.NewProject(algebra.NewBase("Emp"), "clerk")
	v := algebra.NewBase("Emp")
	if _, err := ExprLeq(u, v, states); err == nil {
		t.Error("schema mismatch not reported")
	}
}

func TestSetLeqMatching(t *testing.T) {
	db := figure1DB(t)
	states := sampleStates(t, db, 30)

	joinClerk := algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "clerk")
	joinItem := algebra.NewProject(algebra.NewJoin(algebra.NewBase("Sale"), algebra.NewBase("Emp")), "item")
	empClerk := algebra.NewProject(algebra.NewBase("Emp"), "clerk")
	saleItem := algebra.NewProject(algebra.NewBase("Sale"), "item")

	// {joinClerk, joinItem} ≤ {saleItem, empClerk}: the matching must pair
	// across positions (clerk↔clerk, item↔item).
	ok, err := SetLeq([]algebra.Expr{joinClerk, joinItem}, []algebra.Expr{saleItem, empClerk}, states)
	if err != nil || !ok {
		t.Errorf("SetLeq with permuted matching failed: %v %v", ok, err)
	}
	// Reverse direction must be refuted.
	ok, err = SetLeq([]algebra.Expr{saleItem, empClerk}, []algebra.Expr{joinClerk, joinItem}, states)
	if err != nil || ok {
		t.Errorf("reverse SetLeq accepted: %v %v", ok, err)
	}
	// Strictly smaller.
	less, err := SetLess([]algebra.Expr{joinClerk, joinItem}, []algebra.Expr{saleItem, empClerk}, states)
	if err != nil || !less {
		t.Errorf("SetLess = %v %v", less, err)
	}
	// A set is never strictly below itself.
	self, err := SetLess([]algebra.Expr{joinClerk}, []algebra.Expr{joinClerk}, states)
	if err != nil || self {
		t.Errorf("set < itself: %v %v", self, err)
	}
	// Cardinality mismatch is an error.
	if _, err := SetLeq([]algebra.Expr{joinClerk}, []algebra.Expr{joinClerk, joinItem}, states); err == nil {
		t.Error("cardinality mismatch accepted")
	}
}

func TestStatesFromMaps(t *testing.T) {
	r := relation.New("x")
	r.InsertValues(relation.Int(1))
	states := StatesFromMaps(map[string]*relation.Relation{"R": r})
	got, err := algebra.EvalCtx(nil, algebra.NewBase("R"), states[0])
	if err != nil || got.Len() != 1 {
		t.Errorf("adapter broken: %v %v", got, err)
	}
}
