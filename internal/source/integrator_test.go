package source

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// saleInsert builds the Sale-insert update the delivery tests deliver.
func saleInsert(t *testing.T, sc workload.Scenario, item, clerk string) *catalog.Update {
	t.Helper()
	return catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_(item), relation.String_(clerk))
}

// detachedIntegrator builds an integrator with no sources wired, so tests
// can hand-craft notification schedules (duplicates, gaps).
func detachedIntegrator(t *testing.T) (*Integrator, workload.Scenario) {
	t.Helper()
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	env, err := NewEnvironment(comp, map[string][]string{"all": {"Sale", "Emp"}})
	if err != nil {
		t.Fatal(err)
	}
	return env.Integrator, sc
}

// TestDuplicateDoesNotWedgeDrain is the regression test for an early
// integrator wedge: delivering {1, 2, dup(1), 3} must apply all three
// distinct updates and drop the redelivery.
func TestDuplicateDoesNotWedgeDrain(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	mk := func(seq uint64, item string) Notification {
		return Notification{Source: "all", Seq: seq, Update: saleInsert(t, sc, item, "Mary")}
	}
	n1, n2, n3 := mk(1, "TV set"), mk(2, "VCR"), mk(3, "PC")

	integ.Receive(n1)
	integ.Receive(n2)
	integ.Receive(n1) // transport re-delivery of an already-applied report
	integ.Receive(n3)

	if marks := integ.Marks(); marks["all"] != 3 {
		t.Fatalf("marks = %v, want all:3", marks)
	}
	if refreshes, _ := integ.Stats(); refreshes != 3 {
		t.Fatalf("refreshes = %d, want 3", refreshes)
	}
	if dups, _ := integ.DeliveryStats(); dups != 1 {
		t.Fatalf("duplicates dropped = %d, want 1", dups)
	}
	bases, err := integ.Warehouse().ReconstructBases()
	if err != nil {
		t.Fatal(err)
	}
	if sale := bases["Sale"]; sale.Len() != 3 {
		t.Fatalf("reconstructed Sale has %d tuples, want 3", sale.Len())
	}
}

// TestGapIsRefused: a report past the next expected one is refused with
// an error naming the expected sequence number and counted as rejected;
// the watermark stays.
func TestGapIsRefused(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	err := integ.Offer(Notification{Source: "all", Seq: 2, Update: saleInsert(t, sc, "VCR", "Mary")})
	if err == nil || !strings.Contains(err.Error(), "expected seq 1") {
		t.Fatalf("Offer(seq 2) at watermark 0 = %v, want a refusal naming seq 1", err)
	}
	if _, rejected := integ.DeliveryStats(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	if marks := integ.Marks(); marks["all"] != 0 {
		t.Fatalf("marks = %v after a refusal, want all:0", marks)
	}
}

// TestDuplicateBufferedBehindGap: a report behind a gap is not buffered,
// so its redelivery is refused again rather than dropped as a duplicate;
// once the gap closes the report applies, and a further redelivery is a
// duplicate.
func TestDuplicateBufferedBehindGap(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	mk := func(seq uint64, item string) Notification {
		return Notification{Source: "all", Seq: seq, Update: saleInsert(t, sc, item, "Mary")}
	}
	integ.Receive(mk(2, "VCR"))
	integ.Receive(mk(2, "VCR")) // redelivered while gapped
	if dups, rejected := integ.DeliveryStats(); dups != 0 || rejected != 2 {
		t.Fatalf("duplicates, rejected = %d, %d while gapped; want 0, 2", dups, rejected)
	}
	integ.Receive(mk(1, "TV set"))
	integ.Receive(mk(2, "VCR"))
	integ.Receive(mk(2, "VCR")) // redelivered after it applied
	if marks := integ.Marks(); marks["all"] != 2 {
		t.Fatalf("marks = %v, want the gap closed at all:2", marks)
	}
	if dups, rejected := integ.DeliveryStats(); dups != 1 || rejected != 2 {
		t.Fatalf("duplicates, rejected = %d, %d; want 1, 2", dups, rejected)
	}
	if refreshes, _ := integ.Stats(); refreshes != 2 {
		t.Fatalf("refreshes = %d, want 2", refreshes)
	}
}

// TestGapResyncViaReportingChannel drops a notification in transit and
// asserts the source's Resend — the reporting channel, never the query
// interface — refills it, with the sealed sources' ad-hoc query counter
// untouched.
func TestGapResyncViaReportingChannel(t *testing.T) {
	env, sc := figure1Env(t)
	sales, _ := env.Source("sales")
	dropSeq := uint64(2)
	sales.OnUpdate(func(n Notification) {
		if n.Seq != dropSeq {
			env.Integrator.Receive(n)
		}
	})
	for _, item := range []string{"TV set", "VCR", "PC"} {
		if _, err := sales.Apply(saleInsert(t, sc, item, "Mary")); err != nil {
			t.Fatal(err)
		}
	}
	if marks := env.Integrator.Marks(); marks["sales"] != 1 {
		t.Fatalf("marks = %v with seq 2 lost, want sales:1", marks)
	}
	if _, rejected := env.Integrator.DeliveryStats(); rejected != 1 {
		t.Fatalf("rejected = %d, want seq 3 refused once", rejected)
	}
	dropSeq = 0
	if err := sales.Resend(2); err != nil {
		t.Fatal(err)
	}
	if marks := env.Integrator.Marks(); marks["sales"] != 3 {
		t.Fatalf("marks = %v after Resend(2), want sales:3", marks)
	}
	if refreshes, _ := env.Integrator.Stats(); refreshes != 3 {
		t.Fatalf("refreshes = %d, want 3", refreshes)
	}
	if n := env.TotalQueryAttempts(); n != 0 {
		t.Fatalf("gap refill issued %d ad-hoc source queries", n)
	}
}

// TestRefreshFailureSetAside: a report whose refresh fails is set aside
// with its reason and its source's watermark passes it; later reports
// apply. The record keeps the latest SetAsideCap reports and counts all.
func TestRefreshFailureSetAside(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	boom := errors.New("injected refresh failure")
	chaos.Arm("refresh.apply", 1, boom)
	defer chaos.Reset()

	integ.Receive(Notification{Source: "all", Seq: 1, Update: saleInsert(t, sc, "TV set", "Mary")})
	if marks := integ.Marks(); marks["all"] != 1 {
		t.Fatalf("marks = %v, want the watermark past the failed report", marks)
	}
	sa := integ.SetAside()
	if sa.Total != 1 || len(sa.Recent) != 1 || sa.Recent[0].Seq != 1 || !strings.Contains(sa.Recent[0].Reason, boom.Error()) {
		t.Fatalf("set aside = %+v, want seq 1 with the injected reason", sa)
	}
	integ.Receive(Notification{Source: "all", Seq: 2, Update: saleInsert(t, sc, "VCR", "Mary")})
	if refreshes, _ := integ.Stats(); refreshes != 1 {
		t.Fatalf("refreshes = %d, want the later report applied", refreshes)
	}
	bases, err := integ.Warehouse().ReconstructBases()
	if err != nil {
		t.Fatal(err)
	}
	if sale := bases["Sale"]; sale.Len() != 1 || !sale.Contains(relation.Tuple{relation.String_("VCR"), relation.String_("Mary")}) {
		t.Fatalf("Sale = %v, want the VCR alone", sale)
	}

	for seq := uint64(3); seq < 3+SetAsideCap+1; seq++ {
		chaos.Arm("refresh.apply", 1, boom)
		integ.Receive(Notification{Source: "all", Seq: seq, Update: saleInsert(t, sc, fmt.Sprint("item-", seq), "Mary")})
	}
	sa = integ.SetAside()
	if sa.Total != SetAsideCap+2 || len(sa.Recent) != SetAsideCap {
		t.Fatalf("set aside total %d, %d kept; want %d, %d", sa.Total, len(sa.Recent), SetAsideCap+2, SetAsideCap)
	}
	if first, last := sa.Recent[0].Seq, sa.Recent[SetAsideCap-1].Seq; first != 4 || last != 3+SetAsideCap {
		t.Fatalf("kept seqs %d..%d, want the latest %d..%d", first, last, 4, 3+SetAsideCap)
	}
	if marks := integ.Marks(); marks["all"] != 3+SetAsideCap {
		t.Fatalf("marks = %v, want all:%d", marks, 3+SetAsideCap)
	}
}
