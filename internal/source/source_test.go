package source

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/testmain"
	"dwcomplement/internal/workload"
)

func TestMain(m *testing.M) { testmain.Run(m) }

// figure1Env builds the two-source deployment of Figure 1: the Sales
// database owns Sale, the Company database owns Emp.
func figure1Env(t *testing.T) (*Environment, workload.Scenario) {
	t.Helper()
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	env, err := NewEnvironment(comp, map[string][]string{
		"sales":   {"Sale"},
		"company": {"Emp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, sc
}

func TestFigure1EndToEnd(t *testing.T) {
	env, sc := figure1Env(t)
	sales, _ := env.Source("sales")
	company, _ := env.Source("company")

	// Load the paper's initial data through the sources themselves.
	for _, row := range [][2]string{{"TV set", "Mary"}, {"VCR", "Mary"}, {"PC", "John"}} {
		u := catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_(row[0]), relation.String_(row[1]))
		if _, err := sales.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		clerk string
		age   int64
	}{{"Mary", 23}, {"John", 25}, {"Paula", 32}} {
		u := catalog.NewUpdate().MustInsert("Emp", sc.DB, relation.String_(row.clerk), relation.Int(row.age))
		if _, err := company.Apply(u); err != nil {
			t.Fatal(err)
		}
	}

	w := env.Integrator.Warehouse()
	sold, _ := w.Relation("Sold")
	if sold.Len() != 3 {
		t.Fatalf("Sold = %v", sold)
	}

	// The paper's update: "insert into Sale the tuple ⟨Computer, Paula⟩".
	u := catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_("Computer"), relation.String_("Paula"))
	if _, err := sales.Apply(u); err != nil {
		t.Fatal(err)
	}
	sold, _ = w.Relation("Sold")
	if sold.Len() != 4 || !sold.Contains(relation.Tuple{relation.String_("Computer"), relation.String_("Paula"), relation.Int(32)}) {
		t.Errorf("Sold after the paper's update = %v", sold)
	}

	// The whole run never queried a source.
	if n := env.TotalQueryAttempts(); n != 0 {
		t.Errorf("integrator issued %d source queries", n)
	}
	// And the warehouse matches a fresh materialization of the combined
	// source state.
	combined, err := env.CombinedState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := env.Integrator.w.Complement().MaterializeWarehouseCtx(nil, combined)
	if err != nil {
		t.Fatal(err)
	}
	for name, wantRel := range want {
		got, _ := w.Relation(name)
		if !got.Equal(wantRel) {
			t.Errorf("warehouse %s diverged from source state", name)
		}
	}
}

func TestSealedSourceRejectsQueries(t *testing.T) {
	env, _ := figure1Env(t)
	sales, _ := env.Source("sales")
	if _, err := sales.Query(algebra.NewBase("Sale")); err == nil {
		t.Error("sealed source answered a query")
	}
	if sales.QueryAttempts() != 1 {
		t.Errorf("attempts = %d", sales.QueryAttempts())
	}
}

func TestUnsealedSourceAnswers(t *testing.T) {
	sc := workload.Figure1(false)
	s, err := NewSource("open", sc.DB, false, "Sale")
	if err != nil {
		t.Fatal(err)
	}
	u := catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_("TV"), relation.String_("Mary"))
	if _, err := s.Apply(u); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(algebra.NewBase("Sale"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("query answer = %v", r)
	}
	if s.QueryAttempts() != 1 {
		t.Errorf("attempts = %d", s.QueryAttempts())
	}
}

func TestSourceOwnership(t *testing.T) {
	env, sc := figure1Env(t)
	sales, _ := env.Source("sales")
	u := catalog.NewUpdate().MustInsert("Emp", sc.DB, relation.String_("Eve"), relation.Int(30))
	if _, err := sales.Apply(u); err == nil {
		t.Error("source updated a foreign relation")
	}
}

func TestSourceLocalConstraints(t *testing.T) {
	// A source owning Emp enforces Emp's key locally.
	sc := workload.Figure1(false)
	s, err := NewSource("company", sc.DB, true, "Emp")
	if err != nil {
		t.Fatal(err)
	}
	ok := catalog.NewUpdate().MustInsert("Emp", sc.DB, relation.String_("Mary"), relation.Int(23))
	if _, err := s.Apply(ok); err != nil {
		t.Fatal(err)
	}
	dup := catalog.NewUpdate().MustInsert("Emp", sc.DB, relation.String_("Mary"), relation.Int(99))
	if _, err := s.Apply(dup); err == nil {
		t.Error("key violation accepted by source")
	}
	// Cross-source INDs are not checked locally: a Sale-owning source
	// accepts clerks unknown to its (empty) local Emp.
	ref := workload.Figure1(true)
	salesOnly, err := NewSource("sales", ref.DB, true, "Sale")
	if err != nil {
		t.Fatal(err)
	}
	ins := catalog.NewUpdate().MustInsert("Sale", ref.DB, relation.String_("TV"), relation.String_("Mary"))
	if _, err := salesOnly.Apply(ins); err != nil {
		t.Errorf("cross-source IND enforced locally: %v", err)
	}
	// But a source owning both sides enforces the IND.
	both, err := NewSource("all", ref.DB, true, "Sale", "Emp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := both.Apply(ins); err == nil {
		t.Error("local IND violation accepted")
	}
}

func TestEnvironmentValidation(t *testing.T) {
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	if _, err := NewEnvironment(comp, map[string][]string{"a": {"Sale"}}); err == nil {
		t.Error("uncovered relation accepted")
	}
	if _, err := NewEnvironment(comp, map[string][]string{
		"a": {"Sale", "Emp"}, "b": {"Emp"},
	}); err == nil {
		t.Error("doubly owned relation accepted")
	}
}

func TestConcurrentSources(t *testing.T) {
	// Two sources apply interleaved transaction streams from separate
	// goroutines; the integrator must serialize them and end exactly
	// consistent with the combined source state.
	env, sc := figure1Env(t)
	sales, _ := env.Source("sales")
	company, _ := env.Source("company")

	items := []string{"TV", "VCR", "PC", "Radio", "Phone"}
	clerks := []string{"Mary", "John", "Paula", "Zoe", "Max", "Ann"}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 60; i++ {
			u := catalog.NewUpdate()
			if rng.Intn(3) == 0 {
				u.MustDelete("Sale", sc.DB,
					relation.String_(items[rng.Intn(len(items))]),
					relation.String_(clerks[rng.Intn(len(clerks))]))
			} else {
				u.MustInsert("Sale", sc.DB,
					relation.String_(items[rng.Intn(len(items))]),
					relation.String_(clerks[rng.Intn(len(clerks))]))
			}
			if _, err := sales.Apply(u); err != nil {
				t.Errorf("sales: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 60; i++ {
			u := catalog.NewUpdate()
			c := clerks[rng.Intn(len(clerks))]
			age := relation.Int(int64(20 + rng.Intn(40)))
			if rng.Intn(3) == 0 {
				u.MustDelete("Emp", sc.DB, relation.String_(c), age)
			} else {
				u.MustInsert("Emp", sc.DB, relation.String_(c), age)
			}
			if _, err := company.Apply(u); err != nil {
				// Key violations are legitimate rejections; skip them.
				continue
			}
		}
	}()
	wg.Wait()

	if !env.Integrator.Flush() {
		t.Fatal("integrator left notifications pending")
	}
	combined, err := env.CombinedState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := env.Integrator.w.Complement().MaterializeWarehouseCtx(nil, combined)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Integrator.Warehouse()
	for name, wantRel := range want {
		got, _ := w.Relation(name)
		if !got.Equal(wantRel) {
			t.Errorf("after concurrent run, %s diverged:\ngot  %v\nwant %v", name, got, wantRel)
		}
	}
	if n := env.TotalQueryAttempts(); n != 0 {
		t.Errorf("integrator issued %d source queries", n)
	}
	refreshes, _ := env.Integrator.Stats()
	if refreshes == 0 {
		t.Error("no refreshes recorded")
	}
}

// TestRetainCap: a source keeps only its latest SetRetain reports, and
// Resend below them fails as trimmed while the retained suffix still
// resends.
func TestRetainCap(t *testing.T) {
	env, sc := figure1Env(t)
	sales, _ := env.Source("sales")
	sales.SetRetain(4)
	var got []uint64
	sales.OnUpdate(func(n Notification) { got = append(got, n.Seq) })
	for i := 0; i < 10; i++ {
		u := catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_(fmt.Sprintf("item-%d", i)), relation.String_("Mary"))
		if _, err := sales.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if n := sales.Reports().Len(); n != 4 || sales.Seq() != 10 {
		t.Fatalf("retained %d reports at seq %d, want 4 at 10", n, sales.Seq())
	}
	got = nil
	if err := sales.Resend(6); err == nil || !strings.Contains(err.Error(), "history trimmed") {
		t.Fatalf("Resend(6) = %v, want history trimmed", err)
	}
	if err := sales.Resend(7); err != nil || len(got) != 4 || got[0] != 7 || got[3] != 10 {
		t.Fatalf("Resend(7) delivered %v, err %v; want 7..10", got, err)
	}
}

// TestReportsReadDuringApply: Seq and the report log take their own
// lock, not the source's, so a reader (a /reports long-poll) never
// waits behind an Apply holding it.
func TestReportsReadDuringApply(t *testing.T) {
	env, sc := figure1Env(t)
	sales, _ := env.Source("sales")
	if _, err := sales.Apply(catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_("TV set"), relation.String_("Mary"))); err != nil {
		t.Fatal(err)
	}
	sales.mu.Lock()
	defer sales.mu.Unlock()
	done := make(chan uint64, 1)
	go func() {
		got, _, _ := sales.Reports().From(1, 0)
		done <- sales.Seq() + uint64(len(got))
	}()
	select {
	case n := <-done:
		if n != 2 {
			t.Fatalf("Seq + retained = %d, want 2", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reading the report log waited for the source's lock")
	}
}

// TestApplyDeliversOutsideLock: a report is delivered outside the source's
// lock and in sequence order. While the subscriber still holds the first
// report, a second transaction applies and appends its report; its
// delivery waits for the first's.
func TestApplyDeliversOutsideLock(t *testing.T) {
	env, sc := figure1Env(t)
	sales, _ := env.Source("sales")
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	delivered := make(chan uint64, 2)
	sales.OnUpdate(func(n Notification) {
		if n.Seq == 1 {
			<-release
		}
		delivered <- n.Seq
	})
	applied := make(chan error, 2)
	apply := func(item string) {
		_, err := sales.Apply(catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_(item), relation.String_("Mary")))
		applied <- err
	}
	waitSeq := func(seq uint64) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); sales.Seq() < seq; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("report %d not appended while report 1 is being delivered", seq)
			}
		}
	}
	go apply("TV set")
	waitSeq(1)
	go apply("Radio")
	waitSeq(2)
	select {
	case seq := <-delivered:
		t.Fatalf("report %d delivered while report 1 is still held", seq)
	default:
	}
	unblock()
	for range 2 {
		if err := <-applied; err != nil {
			t.Fatal(err)
		}
	}
	if first, second := <-delivered, <-delivered; first != 1 || second != 2 {
		t.Fatalf("delivered %d then %d, want 1 then 2", first, second)
	}
}
