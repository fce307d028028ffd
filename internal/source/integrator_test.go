package source

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/trace"
	"dwcomplement/internal/workload"
)

// openJournal opens a journal writer for tests.
func openJournal(t *testing.T, path string) (*journal.Writer, error) {
	t.Helper()
	return journal.Open(path)
}

// saleInsert builds the Sale-insert update the hardening tests deliver.
func saleInsert(t *testing.T, sc workload.Scenario, item, clerk string) *catalog.Update {
	t.Helper()
	return catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_(item), relation.String_(clerk))
}

// detachedIntegrator builds an integrator with no sources wired, so tests
// can hand-craft notification schedules (duplicates, gaps, reorderings).
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

// TestDuplicateDoesNotWedgeDrain is the regression test for the PR-3
// integrator wedge: delivering {1, 2, dup(1), 3} must apply all three
// distinct updates. Before the fix, the stale duplicate sorted to the
// head of the pending queue and blocked the drain loop forever.
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

	if !integ.Flush() {
		t.Fatalf("integrator wedged: pending after {1,2,dup(1),3}; gaps=%v", integ.Gaps())
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

// TestDuplicateBufferedBehindGap: a duplicate of a buffered (not yet
// applied) notification is also dropped, and the gap still closes.
func TestDuplicateBufferedBehindGap(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	mk := func(seq uint64, item string) Notification {
		return Notification{Source: "all", Seq: seq, Update: saleInsert(t, sc, item, "Mary")}
	}
	integ.Receive(mk(2, "VCR"))
	integ.Receive(mk(2, "VCR")) // duplicate while gapped
	if gaps := integ.Gaps(); len(gaps) != 1 || gaps[0].Expected != 1 || gaps[0].Pending != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
	integ.Receive(mk(1, "TV set"))
	if !integ.Flush() {
		t.Fatal("gap did not close")
	}
	if dups, _ := integ.DeliveryStats(); dups != 1 {
		t.Fatalf("duplicates = %d, want 1", dups)
	}
}

// TestBackpressure: a full pending buffer refuses further notifications
// with ErrBackpressure instead of queueing without bound, and the
// refused reports are recoverable via resync once the gap closes.
func TestBackpressure(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	integ.SetMaxPending(2)
	mk := func(seq uint64, item string) Notification {
		return Notification{Source: "all", Seq: seq, Update: saleInsert(t, sc, item, "Mary")}
	}
	// Seq 1 missing: everything buffers.
	if err := integ.Offer(mk(2, "VCR")); err != nil {
		t.Fatal(err)
	}
	if err := integ.Offer(mk(3, "PC")); err != nil {
		t.Fatal(err)
	}
	err := integ.Offer(mk(4, "Computer"))
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("third buffered offer: err=%v, want ErrBackpressure", err)
	}
	// Closing the gap drains the buffer; the refused report can then be
	// offered again.
	if err := integ.Offer(mk(1, "TV set")); err != nil {
		t.Fatal(err)
	}
	if err := integ.Offer(mk(4, "Computer")); err != nil {
		t.Fatal(err)
	}
	if !integ.Flush() {
		t.Fatal("pending after backpressure recovery")
	}
	if refreshes, _ := integ.Stats(); refreshes != 4 {
		t.Fatalf("refreshes = %d, want 4", refreshes)
	}
}

// TestGapResyncViaReportingChannel drops a notification in transit and
// asserts the resync hook recovers it through Source.Resend — with the
// sealed sources' ad-hoc query counter untouched.
func TestGapResyncViaReportingChannel(t *testing.T) {
	env, sc := figure1Env(t)
	integ := env.Integrator
	sales, _ := env.Source("sales")

	// Intercept delivery so we can drop seq 2 in transit.
	var dropSeq uint64 = 2
	sales.OnUpdate(func(n Notification) {
		if n.Seq == dropSeq {
			return // lost on the wire
		}
		integ.Receive(n)
	})

	for _, item := range []string{"TV set", "VCR", "PC"} {
		if _, err := sales.Apply(saleInsert(t, sc, item, "Mary")); err != nil {
			t.Fatal(err)
		}
	}
	gaps := integ.Gaps()
	if len(gaps) != 1 || gaps[0].Source != "sales" || gaps[0].Expected != 2 {
		t.Fatalf("gaps = %v, want one gap at sales seq 2", gaps)
	}
	var gapErr error = gaps[0]
	if gapErr.Error() == "" {
		t.Fatal("GapError has empty message")
	}

	// Resync re-requests from the reporting channel; stop dropping first.
	dropSeq = 0
	due, err := integ.Resync()
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 1 {
		t.Fatalf("resync acted on %d gaps, want 1", len(due))
	}
	if !integ.Flush() {
		t.Fatal("gap persists after resync")
	}
	if refreshes, _ := integ.Stats(); refreshes != 3 {
		t.Fatalf("refreshes = %d, want 3", refreshes)
	}
	// The whole recovery never touched the query interface.
	if n := env.TotalQueryAttempts(); n != 0 {
		t.Fatalf("resync issued %d ad-hoc source queries", n)
	}
}

// TestGapTimeoutGatesResync: gaps younger than the timeout are reported
// by Gaps but skipped by Resync.
func TestGapTimeoutGatesResync(t *testing.T) {
	env, sc := figure1Env(t)
	integ := env.Integrator
	integ.SetGapTimeout(time.Hour)
	sales, _ := env.Source("sales")
	sales.OnUpdate(func(n Notification) {
		if n.Seq != 1 {
			integ.Receive(n)
		}
	})
	for _, item := range []string{"TV set", "VCR"} {
		if _, err := sales.Apply(saleInsert(t, sc, item, "Mary")); err != nil {
			t.Fatal(err)
		}
	}
	if len(integ.Gaps()) != 1 {
		t.Fatalf("gaps = %v", integ.Gaps())
	}
	due, err := integ.Resync()
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 0 {
		t.Fatalf("resync acted on a gap younger than the timeout: %v", due)
	}
}

// TestRefreshFailureDeadLetters: a failing refresh wedges the source,
// records a dead letter, leaves the watermark unmoved — and Redrive
// recovers once the fault passes.
func TestRefreshFailureDeadLetters(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	reg := obs.NewRegistry()
	integ.SetMetrics(reg)
	boom := errors.New("injected refresh crash")
	chaos.Arm("refresh.apply", 1, boom)
	defer chaos.Reset()

	n1 := Notification{Source: "all", Seq: 1, Update: saleInsert(t, sc, "TV set", "Mary")}
	integ.Receive(n1)

	wedged := integ.Wedged()
	if err, ok := wedged["all"]; !ok || !errors.Is(err, boom) {
		t.Fatalf("wedged = %v, want injected crash for source all", wedged)
	}
	dead := integ.DeadLetters()
	if len(dead) != 1 || dead[0].Seq != 1 || !errors.Is(dead[0].Err, boom) {
		t.Fatalf("dead letters = %v", dead)
	}
	if marks := integ.Marks(); marks["all"] != 0 {
		t.Fatalf("watermark advanced past failed refresh: %v", marks)
	}
	if integ.Flush() {
		t.Fatal("Flush true while a notification is wedged")
	}

	// Fault cleared: redrive applies the held notification, under a
	// recorded trace whose spans the refresh takes inside the integrator.
	chaos.Reset()
	ctx, sp := trace.New(trace.Config{Rate: 1, Seed: 1}).Start(context.Background(), "redrive")
	defer sp.End()
	if err := integ.Redrive(ctx); err != nil {
		t.Fatal(err)
	}
	if !integ.Flush() {
		t.Fatal("redrive did not recover the wedged source")
	}
	if len(integ.Wedged()) != 0 {
		t.Fatalf("still wedged after successful redrive: %v", integ.Wedged())
	}
	if marks := integ.Marks(); marks["all"] != 1 {
		t.Fatalf("marks = %v, want all:1", marks)
	}
}

// TestCheckpointRecoverRoundTrip drives updates through a journaled
// integrator, "crashes" it, and rebuilds from disk alone — asserting
// exactly-once application and zero source contact.
func TestCheckpointRecoverRoundTrip(t *testing.T) {
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	env, err := NewEnvironment(comp, map[string][]string{"all": {"Sale", "Emp"}})
	if err != nil {
		t.Fatal(err)
	}
	integ := env.Integrator
	src, _ := env.Source("all")

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "state.snap")
	jpath := filepath.Join(dir, "wal.dwj")
	jw, err := openJournal(t, jpath)
	if err != nil {
		t.Fatal(err)
	}
	integ.AttachJournal(jw)

	apply := func(item, clerk string) {
		t.Helper()
		if _, err := src.Apply(saleInsert(t, sc, item, clerk)); err != nil {
			t.Fatal(err)
		}
	}
	apply("TV set", "Mary")
	apply("VCR", "Mary")
	if err := integ.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	apply("PC", "John") // journaled after the checkpoint
	apply("Computer", "Paula")
	wantFP := fingerprintAll(integ.Warehouse())
	wantMarks := integ.Marks()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: rebuild from snapshot + journal suffix. No source contact.
	rec, err := Recover(comp, snapPath, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintAll(rec.Warehouse()); got != wantFP {
		t.Fatalf("recovered state diverges:\ngot:\n%s\nwant:\n%s", got, wantFP)
	}
	if got := rec.Marks(); got["all"] != wantMarks["all"] {
		t.Fatalf("recovered marks = %v, want %v", got, wantMarks)
	}
	// Exactly-once: only the two post-checkpoint records replayed.
	if refreshes, _ := rec.Stats(); refreshes != 2 {
		t.Fatalf("replay refreshes = %d, want 2 (journal suffix only)", refreshes)
	}
	if dups, _ := rec.DeliveryStats(); dups != 0 {
		t.Fatalf("replay dropped %d duplicates, want 0 after checkpoint compaction", dups)
	}
	if n := env.TotalQueryAttempts(); n != 0 {
		t.Fatalf("recovery issued %d source queries", n)
	}

	// Recovery is idempotent: a second crash right after recovery lands
	// on the same state from the same files.
	rec2, err := Recover(comp, snapPath, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintAll(rec2.Warehouse()); got != wantFP {
		t.Fatal("double recovery diverged")
	}
	if refreshes, _ := rec2.Stats(); refreshes != 2 {
		t.Fatalf("second replay refreshes = %d, want 2", refreshes)
	}
}

// TestRecoverMissingFilesIsFresh: neither snapshot nor journal on disk
// means an empty, working integrator.
func TestRecoverMissingFilesIsFresh(t *testing.T) {
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	dir := t.TempDir()
	integ, err := Recover(comp, filepath.Join(dir, "nope.snap"), filepath.Join(dir, "nope.dwj"))
	if err != nil {
		t.Fatal(err)
	}
	if !integ.Flush() {
		t.Fatal("fresh integrator has pending notifications")
	}
	if n := integ.Warehouse().Size(); n != 0 {
		t.Fatalf("fresh warehouse holds %d tuples, want 0", n)
	}
}

// TestJournalFailureRefusesNotification: when the write-ahead append
// fails, the notification is not accepted (it would be unrecoverable
// after a crash) and the failure is dead-lettered via Receive.
func TestJournalFailureRefusesNotification(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	dir := t.TempDir()
	jw, err := openJournal(t, filepath.Join(dir, "wal.dwj"))
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	integ.AttachJournal(jw)

	boom := errors.New("disk gone")
	chaos.Arm("journal.append", 1, boom)
	defer chaos.Reset()
	n := Notification{Source: "all", Seq: 1, Update: saleInsert(t, sc, "TV set", "Mary")}
	if err := integ.Offer(n); !errors.Is(err, boom) {
		t.Fatalf("offer with failing journal: err=%v, want injected error", err)
	}
	if refreshes, _ := integ.Stats(); refreshes != 0 {
		t.Fatal("refresh ran despite failed write-ahead append")
	}
	// Receive routes the same failure to the dead-letter list.
	chaos.Arm("journal.append", 1, boom)
	integ.Receive(n)
	if dead := integ.DeadLetters(); len(dead) != 1 || !errors.Is(dead[0].Err, boom) {
		t.Fatalf("dead letters = %v", dead)
	}
	// With the fault gone the same notification goes through.
	chaos.Reset()
	if err := integ.Offer(n); err != nil {
		t.Fatal(err)
	}
	if !integ.Flush() {
		t.Fatal("notification pending after journal recovered")
	}
}

// fingerprintAll captures every warehouse relation's content.
func fingerprintAll(w interface {
	Names() []string
	Relation(string) (*relation.Relation, bool)
}) string {
	out := ""
	for _, n := range w.Names() {
		r, _ := w.Relation(n)
		out += fmt.Sprintf("%s=%s\n", n, r.Fingerprint())
	}
	return out
}

// TestRedriveHonorsContext is the regression test for the Redrive
// cancellation bug: a pre-canceled context must return ctx.Err()
// promptly without draining anything, and the held notification must
// stay buffered — neither wedged nor dead-lettered — for a later,
// uncanceled redrive to apply.
func TestRedriveHonorsContext(t *testing.T) {
	integ, sc := detachedIntegrator(t)
	boom := errors.New("injected refresh crash")
	chaos.Arm("refresh.apply", 1, boom)
	integ.Receive(Notification{Source: "all", Seq: 1, Update: saleInsert(t, sc, "TV set", "Mary")})
	chaos.Reset()
	if len(integ.Wedged()) != 1 {
		t.Fatalf("setup: wedged = %v, want source all held", integ.Wedged())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := integ.Redrive(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Redrive(canceled) = %v, want context.Canceled", err)
	}
	if marks := integ.Marks(); marks["all"] != 0 {
		t.Fatalf("canceled redrive advanced the watermark: %v", marks)
	}
	if dead := integ.DeadLetters(); len(dead) != 1 {
		t.Fatalf("canceled redrive recorded extra dead letters: %v", dead)
	}

	// The same notification applies once the caller's context allows it.
	if err := integ.Redrive(context.Background()); err != nil {
		t.Fatal(err)
	}
	if marks := integ.Marks(); marks["all"] != 1 {
		t.Fatalf("marks = %v, want all:1 after uncanceled redrive", marks)
	}
	if !integ.Flush() || len(integ.Wedged()) != 0 {
		t.Fatalf("pipeline not clean: wedged=%v", integ.Wedged())
	}
}

// TestRecoverZeroMarksAndEmptyJournal pins the degenerate recovery
// inputs: a checkpoint written before any update (zero watermarks), a
// journal path that does not exist, and a journal file that exists but
// is empty. All three must recover to a clean, serviceable integrator
// — no phantom marks, nothing pending, and a warehouse equal to the
// initial materialization.
func TestRecoverZeroMarksAndEmptyJournal(t *testing.T) {
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	env, err := NewEnvironment(comp, map[string][]string{"all": {"Sale", "Emp"}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "state.snap")

	// Checkpoint with zero updates applied: the marks map is empty.
	if err := env.Integrator.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	ms, marks, err := snapshot.LoadFileMarks(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != 0 {
		t.Fatalf("fresh checkpoint carries marks %v, want none", marks)
	}
	if ms == nil {
		t.Fatal("fresh checkpoint has no state")
	}

	// Missing journal: Replay reports nothing and recovery proceeds.
	missing := filepath.Join(dir, "missing.dwj")
	if n, torn, err := journal.Replay(missing, sc.DB, func(journal.Record) error {
		t.Fatal("replay of a missing journal delivered a record")
		return nil
	}); n != 0 || torn || err != nil {
		t.Fatalf("Replay(missing) = (%d, %v, %v), want (0, false, nil)", n, torn, err)
	}
	got, err := Recover(comp, snapPath, missing)
	if err != nil {
		t.Fatalf("recovery with zero marks + missing journal: %v", err)
	}
	if marks := got.Marks(); len(marks) != 0 {
		t.Fatalf("recovered marks = %v, want none", marks)
	}
	if !got.Flush() || len(got.Wedged()) != 0 {
		t.Fatal("recovered integrator not clean")
	}
	if a, b := fingerprintAll(got.Warehouse()), fingerprintAll(env.Integrator.Warehouse()); a != b {
		t.Fatalf("recovered warehouse diverged:\ngot:\n%s\nwant:\n%s", a, b)
	}

	// Empty journal file (created, never written): same result.
	empty := filepath.Join(dir, "empty.dwj")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _, err := journal.Replay(empty, sc.DB, func(journal.Record) error { return nil }); n != 0 || err != nil {
		t.Fatalf("Replay(empty) = (%d, _, %v), want (0, _, nil)", n, err)
	}
	got2, err := Recover(comp, snapPath, empty)
	if err != nil {
		t.Fatalf("recovery with zero marks + empty journal: %v", err)
	}
	if marks := got2.Marks(); len(marks) != 0 {
		t.Fatalf("recovered marks = %v, want none", marks)
	}

	// The recovered pipeline is live: an update applies normally.
	src, _ := env.Source("all")
	src.OnUpdate(got2.Receive)
	if _, err := src.Apply(saleInsert(t, sc, "TV set", "Mary")); err != nil {
		t.Fatal(err)
	}
	if marks := got2.Marks(); marks["all"] != 1 {
		t.Fatalf("post-recovery apply: marks = %v, want all:1", marks)
	}
}
