package source

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// TestChaosSoak is the end-to-end fault-injection property test of the
// maintenance pipeline: random source transactions flow through lossy,
// duplicating, reordering channels into a journaled integrator that is
// crashed at random points (journal append/sync, snapshot write/rename,
// refresh apply) and recovered from disk alone. After every fault is
// drained the recovered warehouse must equal an oracle recomputation
// from the sources' true combined state, every report must have been
// applied exactly once (watermarks equal source sequence numbers), and
// the sealed sources' ad-hoc query counter must still be zero.
//
// Seeds come from DW_CHAOS_SEED: unset runs the three fixed CI seeds,
// "random" picks one from the clock and logs it for reproduction, and a
// number runs exactly that seed.
func TestChaosSoak(t *testing.T) {
	switch env := os.Getenv("DW_CHAOS_SEED"); env {
	case "":
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) { soak(t, seed) })
		}
	case "random":
		seed := time.Now().UnixNano()
		t.Logf("DW_CHAOS_SEED=%d # reproduce this run", seed)
		soak(t, seed)
	default:
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("DW_CHAOS_SEED=%q is neither empty, \"random\", nor a number", env)
		}
		soak(t, seed)
	}
}

// crashPoints are the durability-critical code paths the soak arms.
var crashPoints = []string{
	"journal.append",
	"journal.sync",
	"snapshot.write",
	"snapshot.rename",
	"refresh.apply",
}

func soak(t *testing.T, seed int64) {
	chaos.Reset()
	defer chaos.Reset()
	rng := rand.New(rand.NewSource(seed))

	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	env, err := NewEnvironment(comp, map[string][]string{
		"sales":   {"Sale"},
		"company": {"Emp"},
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "state.snap")
	jpath := filepath.Join(dir, "wal.dwj")

	// The integrator is replaced on every crash-recovery; the faulty
	// channels deliver to whichever one is current.
	integ := env.Integrator
	jw, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	integ.AttachJournal(jw)

	deliver := func(n Notification) { integ.Receive(n) }
	channels := make(map[string]*chaos.FaultyChannel[Notification])
	for _, s := range env.Sources {
		ch := chaos.NewFaultyChannel(seed+int64(len(channels)), chaos.FaultConfig{
			Drop: 0.08, Duplicate: 0.12, Delay: 0.15,
		}, deliver)
		channels[s.Name()] = ch
		s.OnUpdate(ch.Send)
	}

	// recover simulates a process crash: drop the live integrator,
	// rebuild from snapshot + journal, re-wire channels and resync hook.
	crashes := 0
	recover_ := func() {
		crashes++
		chaos.Reset()
		// The "dying process" releases its journal handle (white-box:
		// the test lives in package source).
		if integ.jw != nil {
			integ.jw.Close()
		}
		next, err := Recover(comp, snapPath, jpath)
		if err != nil {
			t.Fatalf("crash %d: recovery failed: %v", crashes, err)
		}
		integ = next
		integ.SetResyncHook(func(src string, from uint64) error {
			s, ok := env.Source(src)
			if !ok {
				return fmt.Errorf("resync target %q unknown", src)
			}
			return s.Resend(from)
		})
	}

	// Mirror of the true Sale content, for generating valid deletes.
	var saleRows [][2]string
	nextItem, nextClerk := 0, 0
	sales, _ := env.Source("sales")
	company, _ := env.Source("company")

	const ops = 400
	for i := 0; i < ops; i++ {
		// Occasionally arm a crash point for the near future.
		if rng.Float64() < 0.06 {
			p := crashPoints[rng.Intn(len(crashPoints))]
			chaos.Arm(p, uint64(1+rng.Intn(3)), nil)
		}

		switch r := rng.Float64(); {
		case r < 0.55: // insert a sale
			item := fmt.Sprintf("item-%d", nextItem)
			clerk := fmt.Sprintf("clerk-%d", rng.Intn(nextClerk+1))
			nextItem++
			u := catalog.NewUpdate().MustInsert("Sale", sc.DB, relation.String_(item), relation.String_(clerk))
			if _, err := sales.Apply(u); err != nil {
				t.Fatal(err)
			}
			saleRows = append(saleRows, [2]string{item, clerk})
		case r < 0.7 && len(saleRows) > 0: // delete a sale
			k := rng.Intn(len(saleRows))
			row := saleRows[k]
			saleRows = append(saleRows[:k], saleRows[k+1:]...)
			u := catalog.NewUpdate().MustDelete("Sale", sc.DB, relation.String_(row[0]), relation.String_(row[1]))
			if _, err := sales.Apply(u); err != nil {
				t.Fatal(err)
			}
		default: // hire a clerk
			clerk := fmt.Sprintf("clerk-%d", nextClerk)
			nextClerk++
			u := catalog.NewUpdate().MustInsert("Emp", sc.DB, relation.String_(clerk), relation.Int(int64(20+rng.Intn(40))))
			if _, err := company.Apply(u); err != nil {
				t.Fatal(err)
			}
		}

		// Any fired fault is a crash: the process hosting the integrator
		// dies and restarts from its durable state.
		for _, p := range crashPoints {
			if chaos.Fired(p) {
				recover_()
				break
			}
		}

		// Periodic checkpoint (which may itself hit an armed point and
		// "crash" the process).
		if i%37 == 36 {
			if err := integ.Checkpoint(snapPath); err != nil {
				recover_()
			}
		}
	}

	// Settle: stop injecting faults, drain the channels directly into the
	// final integrator, and close every gap through the reporting channel.
	chaos.Reset()
	for _, s := range env.Sources {
		s.OnUpdate(func(n Notification) { integ.Receive(n) })
	}
	for _, ch := range channels {
		ch.SetDeliver(func(n Notification) { integ.Receive(n) })
		ch.Flush()
	}
	marksOf := func(s *Source) uint64 { return s.Seq() }
	settled := false
	for round := 0; round < 50; round++ {
		if err := integ.Redrive(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := integ.Resync(); err != nil {
			t.Fatal(err)
		}
		// Reports refused under backpressure or lost on a crashed journal
		// append leave silent holes (no later report buffered): detect
		// them by comparing watermarks with the true source sequences and
		// re-request — still via the reporting channel.
		done := true
		marks := integ.Marks()
		for _, s := range env.Sources {
			if want := marksOf(s); marks[s.Name()] < want {
				done = false
				if err := s.Resend(marks[s.Name()] + 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if done && integ.Flush() && len(integ.Wedged()) == 0 {
			settled = true
			break
		}
	}
	if !settled {
		t.Fatalf("pipeline did not settle: gaps=%v wedged=%v marks=%v dead=%d",
			integ.Gaps(), integ.Wedged(), integ.Marks(), len(integ.DeadLetters()))
	}

	// One final crash-recovery after a checkpoint, to assert the durable
	// state alone reproduces the settled warehouse.
	if err := integ.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	preCrash := fingerprintAll(integ.Warehouse())
	recover_()
	if got := fingerprintAll(integ.Warehouse()); got != preCrash {
		t.Fatalf("final recovery diverged from checkpointed state:\ngot:\n%s\nwant:\n%s", got, preCrash)
	}

	// The property: the maintained warehouse equals an oracle
	// recomputation from the sources' true combined state.
	combined, err := env.CombinedState()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := comp.MaterializeWarehouseCtx(nil, combined)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range oracle {
		got, ok := integ.Warehouse().Relation(name)
		if !ok {
			t.Fatalf("warehouse lost relation %s", name)
		}
		if !got.Equal(want) {
			t.Errorf("relation %s diverged from oracle after %d crashes:\ngot  %v\nwant %v",
				name, crashes, got, want)
		}
	}

	// Exactly-once: every source report applied, none twice (watermarks
	// equal the sources' sequence counters; set semantics plus the
	// oracle equality above rule out double application).
	marks := integ.Marks()
	for _, s := range env.Sources {
		if want := marksOf(s); marks[s.Name()] != want {
			t.Errorf("source %s: watermark %d, source seq %d", s.Name(), marks[s.Name()], want)
		}
	}

	// Update independence survived every fault: no source was ever
	// queried, not even once, not even during recovery.
	if n := env.TotalQueryAttempts(); n != 0 {
		t.Errorf("pipeline issued %d ad-hoc source queries", n)
	}
	t.Logf("soak seed=%d: %d ops, %d crashes, %d dead letters, settled and verified",
		seed, ops, crashes, len(integ.DeadLetters()))
}
