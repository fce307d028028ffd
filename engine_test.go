package dwc_test

import (
	"context"
	"errors"
	"testing"

	dwc "dwcomplement"
)

// figure1Warehouse builds the paper's Figure 1 warehouse via the public
// facade.
func figure1Warehouse(t *testing.T, opts dwc.Options) *dwc.Warehouse {
	t.Helper()
	db := dwc.NewDatabase().
		MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string")).
		MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	views := dwc.MustNewViewSet(db,
		dwc.NewView("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp"))
	st := db.NewState().
		MustInsert("Sale", dwc.Str("TV set"), dwc.Str("Mary")).
		MustInsert("Sale", dwc.Str("VCR"), dwc.Str("Mary")).
		MustInsert("Sale", dwc.Str("PC"), dwc.Str("John")).
		MustInsert("Emp", dwc.Str("Mary"), dwc.Int(23)).
		MustInsert("Emp", dwc.Str("John"), dwc.Int(31)).
		MustInsert("Emp", dwc.Str("Paula"), dwc.Int(32))
	w, err := dwc.BuildWarehouse(db, views, opts, st)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewOptionsPresets(t *testing.T) {
	if got := dwc.NewOptions(); got != dwc.Proposition22() {
		t.Errorf("NewOptions() = %+v, want Proposition22", got)
	}
	got := dwc.NewOptions(dwc.WithKeys(true), dwc.WithINDs(true), dwc.WithEmptyDetection(true))
	if got != dwc.Theorem22() {
		t.Errorf("NewOptions(keys, inds, empty) = %+v, want Theorem22", got)
	}
	if got := dwc.NewOptions(dwc.WithNamePrefix("AUX_")); got.NamePrefix != "AUX_" {
		t.Errorf("WithNamePrefix not applied: %+v", got)
	}
	// Options built functionally must drive the pipeline like the presets.
	w := figure1Warehouse(t, dwc.NewOptions(dwc.WithKeys(true)))
	if w.Size() == 0 {
		t.Error("warehouse empty")
	}
}

func TestAnswerContextStats(t *testing.T) {
	w := figure1Warehouse(t, dwc.Theorem22())
	q := dwc.MustParseExpr("pi{item, age}(Sale join Emp)")
	ans, err := dwc.Answer(context.Background(), w, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Errorf("answer = %v", ans.Relation())
	}
	stats := ans.Stats()
	if stats == nil {
		t.Fatal("no stats")
	}
	if stats.IndexHits == 0 {
		t.Errorf("IndexHits = 0, want > 0 (stats = %+v)", stats)
	}
	if stats.Emitted == 0 || stats.Wall <= 0 || len(stats.Ops) == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestEvalExprContextStats(t *testing.T) {
	w := figure1Warehouse(t, dwc.Theorem22())
	r, err := dwc.EvalExpr(context.Background(), dwc.MustParseExpr("Sold join Sold"), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.Stats().Scanned == 0 {
		t.Errorf("r = %v, stats = %+v", r.Relation(), r.Stats())
	}
}

func TestAnswerContextCancellation(t *testing.T) {
	w := figure1Warehouse(t, dwc.Theorem22())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := w.AnswerContext(ctx, dwc.MustParseExpr("Sale join Emp"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if stats == nil {
		t.Error("stats must be returned even on cancellation")
	}
}

func TestRefreshContextCancellationLeavesWarehouseUntouched(t *testing.T) {
	w := figure1Warehouse(t, dwc.Theorem22())
	before := w.CloneState()
	m := dwc.NewMaintainer(w.Complement())
	u := dwc.NewUpdate().MustInsert("Sale", w.Complement().Database(), dwc.Str("Radio"), dwc.Str("Paula"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RefreshContext(ctx, w, u); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	for name, r := range before {
		cur, ok := w.Relation(name)
		if !ok || !cur.Equal(r) {
			t.Errorf("relation %s changed by a canceled refresh", name)
		}
	}

	// The same refresh with a live context must go through and report
	// wall time and evaluation counters.
	stats, err := m.RefreshContext(context.Background(), w, u)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total() == 0 || stats.Wall <= 0 || stats.Eval == nil {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSentinelErrors(t *testing.T) {
	db := dwc.NewDatabase().
		MustAddSchema(dwc.NewSchema("R", "a:int")).
		MustAddSchema(dwc.NewSchema("S", "b:int"))
	st := db.NewState()

	_, err := dwc.EvalExpr(context.Background(), dwc.MustParseExpr("Nope"), st)
	if !errors.Is(err, dwc.ErrUnknownRelation) {
		t.Errorf("unknown relation: err = %v", err)
	}
	_, err = dwc.EvalExpr(context.Background(), dwc.MustParseExpr("R union S"), st)
	if !errors.Is(err, dwc.ErrSchemaMismatch) {
		t.Errorf("schema mismatch: err = %v", err)
	}

	// The warehouse query path surfaces the same sentinels.
	w := figure1Warehouse(t, dwc.Theorem22())
	if _, err := dwc.Answer(context.Background(), w, dwc.MustParseExpr("Missing")); !errors.Is(err, dwc.ErrUnknownRelation) {
		t.Errorf("warehouse unknown relation: err = %v", err)
	}
}

// TestRefreshReadsFollowTheDelta: on the Section-5 schema a refresh that
// inserts one tokyo order and deletes another reads what the delta
// reaches, whatever the size of the views — nothing in full, the same
// number of rows scanned and probed at 10k and at 100k source rows — and
// its eval block lists the reads propagation made. Two churn cases:
//
//   - french-delete: the deleted order's customer is French, so the order
//     leaves TokyoFR, and the projections of TokyoFR and C_Order_tokyo
//     probe the new σ(Order_tokyo ⋈ Customer) for a re-insertion: the
//     views' own join(2)⋉, select⋉ and diff⋉ (the new Order_tokyo, old
//     minus the deletion) are read under the delta.
//   - other-delete: the deleted order's customer is not French, so no
//     projection loses a tuple, C_Order_tokyo = Order_tokyo ∖ π(…) takes
//     its delta from the deltas alone, and the refresh records no diff⋉
//     and at most 8 operator records: normalization's and the join's
//     probes of Customer.
func TestRefreshReadsFollowTheDelta(t *testing.T) {
	cases := []struct {
		name   string
		french bool // whether the deleted order's customer is French
	}{{"french-delete", true}, {"other-delete", false}}
	read := make([][]int64, len(cases))
	for _, rows := range []int{10_000, 100_000} {
		w := section5Warehouse(t, rows)
		db, m := w.Complement().Database(), dwc.NewMaintainer(w.Complement())
		nation := map[int64]string{}
		cust, _ := w.Relation("DimCustomer")
		for tu := range cust.All() {
			nation[cust.Get(tu, "ckey").AsInt()] = cust.Get(tu, "nation").AsString()
		}
		okey := rows/2 - 1
		for ci, c := range cases {
			// The first churn order past those used whose customer is French
			// exactly when the case wants it.
			for okey += 2; (nation[churnOrder("tokyo", okey, rows/20)[1].AsInt()] == "France") != c.french; okey++ {
			}
			var st dwc.RefreshStats
			for i := 0; i < 2; i++ { // insert the order; then insert the next and delete it
				u := dwc.NewUpdate().MustInsert("Order_tokyo", db, churnOrder("tokyo", okey+i, rows/20)...)
				if i > 0 {
					u.MustDelete("Order_tokyo", db, churnOrder("tokyo", okey, rows/20)...)
				}
				var err error
				if st, err = dwc.Refresh(context.Background(), m, w, u); err != nil {
					t.Fatal(err)
				}
			}
			if st.UpdateSize != 2 || st.FullReconstructions != 0 || st.RestrictedLookups == 0 {
				t.Errorf("%s, %d rows: update of %d tuples read %d values in full, %d under a probe",
					c.name, rows, st.UpdateSize, st.FullReconstructions, st.RestrictedLookups)
			}
			ops := map[string]int{}
			for _, o := range st.Eval.Ops {
				ops[o.Op]++
			}
			if c.french && (ops["join(2)⋉"] == 0 || ops["select⋉"] == 0 || ops["diff⋉"] == 0) {
				t.Errorf("%s, %d rows: eval block lacks the views' own operators: %v", c.name, rows, ops)
			}
			if !c.french && (ops["diff⋉"] != 0 || len(st.Eval.Ops) > 8) {
				t.Errorf("%s, %d rows: %d operator records, want ≤ 8 and no diff⋉: %v", c.name, rows, len(st.Eval.Ops), ops)
			}
			read[ci] = append(read[ci], st.Eval.Scanned+st.Eval.Probed)
		}
	}
	for ci, c := range cases {
		if lo, hi := min(read[ci][0], read[ci][1]), max(read[ci][0], read[ci][1]); lo == 0 || hi > 2*lo {
			t.Errorf("%s: refresh scanned+probed %d rows at 10k and %d at 100k: not O(delta)", c.name, read[ci][0], read[ci][1])
		}
	}
}
