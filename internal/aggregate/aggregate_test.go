package aggregate

import (
	"math/rand"
	"strings"
	"testing"

	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
)

// factRel builds a small Orders-style fact table.
func factRel(rows ...[3]interface{}) *relation.Relation {
	r := relation.New("loc", "okey", "qty")
	for _, row := range rows {
		r.InsertValues(
			relation.String_(row[0].(string)),
			relation.Int(int64(row[1].(int))),
			relation.Int(int64(row[2].(int))))
	}
	return r
}

func get(t *testing.T, res *relation.Relation, loc string, agg string) relation.Value {
	t.Helper()
	var out relation.Value
	found := false
	for tu := range res.All() {
		if res.Get(tu, "loc").AsString() == loc {
			out = res.Get(tu, agg)
			found = true
		}
	}
	if !found {
		t.Fatalf("group %q missing in %v", loc, res)
	}
	return out
}

func TestInitializeAllFuncs(t *testing.T) {
	fact := factRel(
		[3]interface{}{"paris", 1, 10},
		[3]interface{}{"paris", 2, 30},
		[3]interface{}{"tokyo", 3, 5})
	tests := []struct {
		agg       Func
		wantParis int64
		wantTokyo int64
	}{
		{Count, 2, 1},
		{Sum, 40, 5},
		{Min, 10, 5},
		{Max, 30, 5},
	}
	for _, tt := range tests {
		t.Run(tt.agg.String(), func(t *testing.T) {
			v := New("A", "Orders", []string{"loc"}, tt.agg, "qty")
			if err := v.Initialize(fact); err != nil {
				t.Fatal(err)
			}
			res := v.Result()
			if res.Len() != 2 || v.Groups() != 2 {
				t.Fatalf("groups = %v", res)
			}
			if got := get(t, res, "paris", tt.agg.String()).AsInt(); got != tt.wantParis {
				t.Errorf("paris = %d, want %d", got, tt.wantParis)
			}
			if got := get(t, res, "tokyo", tt.agg.String()).AsInt(); got != tt.wantTokyo {
				t.Errorf("tokyo = %d, want %d", got, tt.wantTokyo)
			}
		})
	}
}

func TestValidate(t *testing.T) {
	fact := factRel([3]interface{}{"paris", 1, 10})
	bad := []*View{
		New("A", "Orders", []string{"nope"}, Sum, "qty"),
		New("A", "Orders", []string{"loc"}, Sum, "nope"),
		New("A", "Orders", nil, Sum, "qty"),
	}
	for _, v := range bad {
		if err := v.Initialize(fact); err == nil {
			t.Errorf("invalid view accepted: %s", v)
		}
	}
	// Count ignores Attr entirely.
	v := New("A", "Orders", []string{"loc"}, Count, "whatever")
	if err := v.Initialize(fact); err != nil {
		t.Errorf("count with missing attr rejected: %v", err)
	}
	// Sum over strings fails.
	strFact := relation.New("loc", "name")
	strFact.InsertValues(relation.String_("paris"), relation.String_("x"))
	vs := New("A", "Orders", []string{"loc"}, Sum, "name")
	if err := vs.Initialize(strFact); err == nil {
		t.Error("sum over strings accepted")
	}
}

// applyDelta applies an exact delta to both the fact table and the view.
func applyDelta(t *testing.T, v *View, fact *relation.Relation, d maintain.Delta) {
	t.Helper()
	exact := d.Exact(fact)
	exact.ApplyTo(fact)
	if err := v.Apply(exact, fact); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalMatchesRecompute(t *testing.T) {
	for _, agg := range []Func{Count, Sum, Min, Max} {
		t.Run(agg.String(), func(t *testing.T) {
			fact := relation.New("loc", "okey", "qty")
			v := New("A", "Orders", []string{"loc"}, agg, "qty")
			if err := v.Initialize(fact); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(agg) + 7))
			locs := []string{"paris", "tokyo", "austin"}
			nextKey := int64(0)
			for round := 0; round < 120; round++ {
				d := maintain.Delta{
					Ins: relation.New("loc", "okey", "qty"),
					Del: relation.New("loc", "okey", "qty"),
				}
				if rng.Intn(3) > 0 || fact.IsEmpty() {
					d.Ins.InsertValues(
						relation.String_(locs[rng.Intn(len(locs))]),
						relation.Int(nextKey),
						relation.Int(int64(rng.Intn(50))))
					nextKey++
				} else {
					victims := fact.SortedTuples()
					d.Del.Insert(victims[rng.Intn(len(victims))])
				}
				applyDelta(t, v, fact, d)
				want, err := Recompute(v, fact)
				if err != nil {
					t.Fatal(err)
				}
				if got := v.Result(); !got.Equal(want) {
					t.Fatalf("round %d (%s): incremental drifted:\ngot  %v\nwant %v\nfact %v",
						round, agg, got, want, fact)
				}
			}
		})
	}
}

func TestMinMaxRescanOnExtremumDeletion(t *testing.T) {
	fact := factRel(
		[3]interface{}{"paris", 1, 10},
		[3]interface{}{"paris", 2, 30},
		[3]interface{}{"paris", 3, 20})
	v := New("A", "Orders", []string{"loc"}, Max, "qty")
	if err := v.Initialize(fact); err != nil {
		t.Fatal(err)
	}
	// Delete the max (30): the group must fall back to 20.
	d := maintain.Delta{Ins: relation.New("loc", "okey", "qty"), Del: relation.New("loc", "okey", "qty")}
	d.Del.InsertValues(relation.String_("paris"), relation.Int(2), relation.Int(30))
	applyDelta(t, v, fact, d)
	if got := get(t, v.Result(), "paris", "max").AsInt(); got != 20 {
		t.Errorf("max after extremum deletion = %d, want 20", got)
	}
}

func TestGroupDisappears(t *testing.T) {
	fact := factRel([3]interface{}{"paris", 1, 10})
	v := New("A", "Orders", []string{"loc"}, Count, "qty")
	if err := v.Initialize(fact); err != nil {
		t.Fatal(err)
	}
	d := maintain.Delta{Ins: relation.New("loc", "okey", "qty"), Del: relation.New("loc", "okey", "qty")}
	d.Del.InsertValues(relation.String_("paris"), relation.Int(1), relation.Int(10))
	applyDelta(t, v, fact, d)
	if v.Groups() != 0 || v.Result().Len() != 0 {
		t.Errorf("empty group survived: %v", v.Result())
	}
}

func TestStringAndKeys(t *testing.T) {
	v := New("SalesPerSite", "Orders", []string{"loc"}, Sum, "qty")
	if got := v.String(); got != "SalesPerSite = γ{loc; sum(qty)}(Orders)" {
		t.Errorf("String = %q", got)
	}
	fact := factRel([3]interface{}{"b", 1, 1}, [3]interface{}{"a", 2, 2})
	if err := v.Initialize(fact); err != nil {
		t.Fatal(err)
	}
	keys := v.SortedGroupKeys()
	if len(keys) != 2 || !(keys[0] < keys[1]) {
		t.Errorf("keys = %v", keys)
	}
}

func TestFloatSum(t *testing.T) {
	fact := relation.New("loc", "price")
	fact.InsertValues(relation.String_("paris"), relation.Float(1.5))
	fact.InsertValues(relation.String_("paris"), relation.Float(2.25))
	v := New("A", "F", []string{"loc"}, Sum, "price")
	if err := v.Initialize(fact); err != nil {
		t.Fatal(err)
	}
	if got := get(t, v.Result(), "paris", "sum").AsFloat(); got != 3.75 {
		t.Errorf("sum = %v", got)
	}
}

func TestConsumeFiltersByTarget(t *testing.T) {
	fact := factRel([3]interface{}{"paris", 1, 10})
	v := New("A", "Orders", []string{"loc"}, Count, "qty")
	if err := v.Initialize(fact); err != nil {
		t.Fatal(err)
	}
	d := maintain.Delta{Ins: relation.New("loc", "okey", "qty"), Del: relation.New("loc", "okey", "qty")}
	d.Ins.InsertValues(relation.String_("tokyo"), relation.Int(9), relation.Int(1))
	// Wrong target: ignored.
	if err := v.Consume("SomethingElse", d, fact); err != nil {
		t.Fatal(err)
	}
	if v.Groups() != 1 {
		t.Error("delta for foreign target consumed")
	}
	// Right target: applied.
	for tu := range d.Ins.All() {
		fact.Insert(tu)
	}
	if err := v.Consume("Orders", d, fact); err != nil {
		t.Fatal(err)
	}
	if v.Groups() != 2 {
		t.Error("delta for own target ignored")
	}
}

func TestMultiAttributeGroupBy(t *testing.T) {
	fact := relation.New("loc", "brand", "qty")
	fact.InsertValues(relation.String_("paris"), relation.String_("Acme"), relation.Int(1))
	fact.InsertValues(relation.String_("paris"), relation.String_("Globex"), relation.Int(2))
	fact.InsertValues(relation.String_("paris"), relation.String_("Acme"), relation.Int(3))
	v := New("A", "F", []string{"loc", "brand"}, Count, "")
	if err := v.Initialize(fact); err != nil {
		t.Fatal(err)
	}
	res := v.Result()
	if res.Len() != 2 {
		t.Fatalf("groups = %v", res)
	}
	if !strings.Contains(res.String(), "Acme") {
		t.Error("group key lost")
	}
}
