package workload

import (
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/relation"
)

func TestFigure1Fixture(t *testing.T) {
	for _, withRef := range []bool{false, true} {
		sc := Figure1(withRef)
		if err := sc.DB.Validate(); err != nil {
			t.Fatal(err)
		}
		if sc.Views.Len() != 1 {
			t.Error("Figure1 must have exactly the Sold view")
		}
		st := Figure1State(sc.DB)
		if st.Size() != 6 {
			t.Errorf("paper state has %d tuples, want 6", st.Size())
		}
		if err := st.Check(); err != nil {
			t.Errorf("paper state inconsistent: %v", err)
		}
		hasIND := sc.DB.Constraints().Len() > 0
		if hasIND != withRef {
			t.Errorf("withRefInt=%v but IND present=%v", withRef, hasIND)
		}
	}
}

func TestExampleFixtures(t *testing.T) {
	cases := []Scenario{
		Example21(false), Example21(true),
		Example22(),
		Example23(E23None, true), Example23(E23KeyR1, true),
		Example23(E23AllKeysAndINDs, true), Example23(E23AllKeysAndINDs, false),
	}
	for _, sc := range cases {
		if err := sc.DB.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		for _, v := range sc.Views.Views() {
			if err := v.Validate(sc.DB); err != nil {
				t.Errorf("%s/%s: %v", sc.Name, v.Name, err)
			}
		}
	}
	// Constraint regimes differ as specified.
	if sc := Example23(E23None, true); sc.DB.Constraints().Len() != 0 {
		t.Error("E23None has INDs")
	}
	if sc := Example23(E23AllKeysAndINDs, true); sc.DB.Constraints().Len() != 2 {
		t.Errorf("E23AllKeysAndINDs INDs = %d, want 2", sc.DB.Constraints().Len())
	}
	if sc := Example23(E23AllKeysAndINDs, false); sc.DB.Constraints().Len() != 1 {
		t.Errorf("reduced view set INDs = %d, want 1 (only AC)", sc.DB.Constraints().Len())
	}
}

func TestGenStatesConsistent(t *testing.T) {
	scenarios := []Scenario{
		Figure1(true),
		Example23(E23AllKeysAndINDs, true),
		RandomScenario(3, 4, 2),
	}
	for _, sc := range scenarios {
		gen := NewGen(sc.DB, 9)
		for i, st := range gen.States(10, 8) {
			if err := st.Check(); err != nil {
				t.Errorf("%s state %d: %v", sc.Name, i, err)
			}
		}
	}
}

func TestGenStatesDeterministic(t *testing.T) {
	sc := Figure1(true)
	a := NewGen(sc.DB, 5).State(10)
	b := NewGen(sc.DB, 5).State(10)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same seed produced different states")
	}
	c := NewGen(sc.DB, 6).State(10)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different seeds produced identical states")
	}
}

func TestGenUpdateKeepsConsistency(t *testing.T) {
	sc := Example23(E23AllKeysAndINDs, true)
	gen := NewGen(sc.DB, 13)
	st := gen.State(10)
	for round := 0; round < 20; round++ {
		u := gen.Update(st, 4, 3)
		if err := u.Apply(st); err != nil {
			t.Fatal(err)
		}
		if err := st.Check(); err != nil {
			t.Fatalf("round %d: update broke consistency: %v\n%s", round, err, u)
		}
	}
}

func TestGenUpdateNormalized(t *testing.T) {
	sc := Figure1(false)
	gen := NewGen(sc.DB, 7)
	st := gen.State(8)
	u := gen.Update(st, 5, 5)
	// Every insert must be absent, every delete present.
	for _, name := range u.Touched() {
		r := st.MustRelation(name)
		if ins := u.Inserts(name); ins != nil {
			for tu := range ins.All() {
				if r.ContainsAligned(tu, ins) {
					t.Errorf("insert of present tuple %v into %s", tu, name)
				}
			}
		}
		if del := u.Deletes(name); del != nil {
			for tu := range del.All() {
				if !r.ContainsAligned(tu, del) {
					t.Errorf("delete of absent tuple %v from %s", tu, name)
				}
			}
		}
	}
}

func TestGenRespectsDomains(t *testing.T) {
	sc := Figure1(false)
	sc.DB.MustAddDomain("Emp", algebra.AttrCmpConst("age", algebra.OpGt, relation.Int(100)))
	gen := NewGen(sc.DB, 3)
	st := gen.State(10)
	// The generated int domain tops out well below 100, so Emp must be
	// empty rather than inconsistent.
	if st.MustRelation("Emp").Len() != 0 {
		t.Errorf("domain constraint ignored: %v", st.MustRelation("Emp"))
	}
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestChainSchema(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		db, views := ChainSchema(n)
		if err := db.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(db.Names()) != n {
			t.Errorf("n=%d: %d relations", n, len(db.Names()))
		}
		if views.Len() != n+1 {
			t.Errorf("n=%d: %d views, want %d", n, views.Len(), n+1)
		}
		if db.Constraints().Len() != n-1 {
			t.Errorf("n=%d: %d INDs, want %d", n, db.Constraints().Len(), n-1)
		}
		gen := NewGen(db, 1)
		if err := gen.State(6).Check(); err != nil {
			t.Errorf("n=%d: generated state inconsistent: %v", n, err)
		}
	}
}

func TestRandomScenarioShape(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		sc := RandomScenario(seed, 4, 3)
		if err := sc.DB.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.Views.Len() == 0 {
			t.Errorf("seed %d: no views", seed)
		}
	}
	// Degenerate arguments are clamped, not fatal.
	sc := RandomScenario(1, 0, 1)
	if len(sc.DB.Names()) != 1 {
		t.Error("nRels clamp failed")
	}
}

func TestStatesAdapter(t *testing.T) {
	sc := Figure1(false)
	st := Figure1State(sc.DB)
	adapted := States(st)
	r, err := algebra.EvalCtx(nil, algebra.NewBase("Emp"), adapted[0])
	if err != nil || r.Len() != 3 {
		t.Errorf("adapter broken: %v %v", r, err)
	}
}
