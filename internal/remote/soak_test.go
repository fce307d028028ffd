package remote

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/source"
	"dwcomplement/internal/workload"
)

// TestRemoteChaosSoak is the network twin of the source package's chaos
// soak: the full Figure 1 pipeline runs against real HTTP source
// servers (httptest listeners) through a seeded fault-injecting
// transport that drops connections, loses responses after the server
// handled them (forcing duplicate re-fetches), injects 503s, delays,
// and truncates bodies. Mid-soak one source suffers a total outage long
// enough to trip its client's circuit breaker, then heals; the breaker
// must complete at least one full open → half-open → closed cycle. The
// journaled integrator is crash-recovered from disk alone, and at the
// end the warehouse must equal an oracle recomputation from the
// sources' true combined state, every report applied exactly once,
// every source out of quarantine with staleness back at zero — and the
// sealed sources' ad-hoc query counter still zero.
//
// Seeds follow the DW_CHAOS_SEED convention: unset runs the three fixed
// CI seeds, "random" picks one from the clock and logs it, and a number
// runs exactly that seed.
func TestRemoteChaosSoak(t *testing.T) {
	switch env := os.Getenv("DW_CHAOS_SEED"); env {
	case "":
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) { networkSoak(t, seed) })
		}
	case "random":
		seed := time.Now().UnixNano()
		t.Logf("DW_CHAOS_SEED=%d # reproduce this run", seed)
		networkSoak(t, seed)
	default:
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("DW_CHAOS_SEED=%q is neither empty, \"random\", nor a number", env)
		}
		networkSoak(t, seed)
	}
}

// moderateFaults is the steady-state network weather of the soak.
var moderateFaults = chaos.HTTPFaultConfig{
	Drop:         0.10,
	LoseResponse: 0.08,
	Err5xx:       0.08,
	Delay:        0.20,
	MaxDelay:     5 * time.Millisecond,
	PartialBody:  0.05,
}

func networkSoak(t *testing.T, seed int64) {
	chaos.Reset()
	defer chaos.Reset()
	rng := rand.New(rand.NewSource(seed))

	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	env, err := source.NewEnvironment(comp, map[string][]string{
		"sales":   {"Sale"},
		"company": {"Emp"},
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "state.snap")
	jpath := filepath.Join(dir, "wal.dwj")
	integ := env.Integrator
	jw, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	integ.AttachJournal(jw)

	// Put each source behind a real HTTP server and a fault-injecting
	// transport; the clients replace the in-process wiring that
	// NewEnvironment set up.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	transports := map[string]*chaos.FaultyTransport{}
	clients := map[string]*Client{}
	for i, s := range env.Sources {
		srv := NewSourceServer(s) // re-registers the notification callback
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		tr := chaos.NewFaultyTransport(seed+int64(100+i), moderateFaults, nil)
		c := NewClient(s.Name(), ts.URL, sc.DB, Config{
			AttemptTimeout:   500 * time.Millisecond,
			MaxRetries:       3,
			BackoffBase:      time.Millisecond,
			BackoffMax:       10 * time.Millisecond,
			Seed:             seed + int64(200+i),
			BreakerThreshold: 4,
			BreakerCooldown:  30 * time.Millisecond,
			PollWait:         50 * time.Millisecond,
			PollInterval:     time.Millisecond,
		})
		c.SetTransport(tr)
		c.SetMetrics(reg)
		c.OnUpdate(integ.Receive)
		transports[s.Name()] = tr
		clients[s.Name()] = c
	}
	integ.SetResyncHook(func(src string, from uint64) error {
		c, ok := clients[src]
		if !ok {
			return fmt.Errorf("resync target %q unknown", src)
		}
		return c.Resend(from)
	})
	for _, c := range clients {
		c.Start(ctx)
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// Workload: random source transactions, as in the in-process soak.
	var saleRows [][2]string
	nextItem, nextClerk := 0, 0
	sales, _ := env.Source("sales")
	company, _ := env.Source("company")
	applyOne := func() {
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
	}

	// Phase A: steady traffic through moderately lossy weather.
	const phaseAOps = 80
	for i := 0; i < phaseAOps; i++ {
		applyOne()
		if i%37 == 36 {
			if err := integ.Checkpoint(snapPath); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}

	// Phase B: total outage for the sales source — every connection
	// drops until its circuit breaker trips open. Traffic keeps flowing
	// (the server-side log accrues; the client must catch up later).
	salesClient := clients["sales"]
	transports["sales"].SetConfig(chaos.HTTPFaultConfig{Drop: 1.0})
	for i := 0; i < 15; i++ {
		applyOne()
	}
	waitFor(t, 10*time.Second, func() bool { return salesClient.Breaker().Opens() >= 1 })
	if !salesClient.Quarantined() {
		t.Fatal("breaker open but client not quarantined")
	}

	// Phase C: the network heals; after the cooldown the half-open
	// probe must close the circuit — one full breaker cycle.
	transports["sales"].SetConfig(moderateFaults)
	waitFor(t, 10*time.Second, func() bool { return salesClient.Breaker().Cycles() >= 1 })

	// Crash-recovery: stop delivery, rebuild the integrator from
	// snapshot + journal alone, re-wire the clients, and rewind their
	// cursors to the recovered watermarks so undelivered reports are
	// re-fetched (duplicates are deduped by Seq).
	for _, c := range clients {
		c.Close()
	}
	integ, err = source.Recover(comp, snapPath, jpath)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	integ.SetResyncHook(func(src string, from uint64) error {
		c, ok := clients[src]
		if !ok {
			return fmt.Errorf("resync target %q unknown", src)
		}
		return c.Resend(from)
	})
	marks := integ.Marks()
	for name, c := range clients {
		c.OnUpdate(integ.Receive)
		c.Rewind(marks[name])
		c.Start(ctx)
	}

	// Phase D: more traffic through the recovered pipeline.
	for i := 0; i < 40; i++ {
		applyOne()
	}

	// Settle: perfect weather; drive the pipeline until every report is
	// applied, every client is healthy, and staleness is back to zero.
	for _, tr := range transports {
		tr.SetEnabled(false)
	}
	settled := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := integ.Redrive(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := integ.Resync(); err != nil {
			t.Fatal(err)
		}
		done := true
		marks := integ.Marks()
		for _, s := range env.Sources {
			if marks[s.Name()] < s.Seq() {
				done = false
			}
		}
		for _, c := range clients {
			if c.Quarantined() || c.Staleness() != 0 {
				done = false
			}
		}
		if done && integ.Flush() && len(integ.Wedged()) == 0 {
			settled = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !settled {
		t.Fatalf("pipeline did not settle: gaps=%v wedged=%v marks=%v cursors=[sales:%d company:%d]",
			integ.Gaps(), integ.Wedged(), integ.Marks(),
			clients["sales"].Cursor(), clients["company"].Cursor())
	}

	// The breaker completed at least one full cycle during the soak.
	if salesClient.Breaker().Opens() < 1 || salesClient.Breaker().Cycles() < 1 {
		t.Fatalf("breaker opens=%d cycles=%d, want at least one full open → half-open → closed cycle",
			salesClient.Breaker().Opens(), salesClient.Breaker().Cycles())
	}

	// Final crash-recovery: the durable state alone must reproduce the
	// settled warehouse.
	for _, c := range clients {
		c.Close()
	}
	if err := integ.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	preCrash := soakFingerprint(integ)
	recovered, err := source.Recover(comp, snapPath, jpath)
	if err != nil {
		t.Fatalf("final recovery failed: %v", err)
	}
	if got := soakFingerprint(recovered); got != preCrash {
		t.Fatalf("final recovery diverged:\ngot:\n%s\nwant:\n%s", got, preCrash)
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
		got, ok := recovered.Warehouse().Relation(name)
		if !ok {
			t.Fatalf("warehouse lost relation %s", name)
		}
		if !got.Equal(want) {
			t.Errorf("relation %s diverged from oracle:\ngot  %v\nwant %v", name, got, want)
		}
	}

	// Exactly-once: watermarks equal the sources' sequence counters.
	marks = recovered.Marks()
	for _, s := range env.Sources {
		if want := s.Seq(); marks[s.Name()] != want {
			t.Errorf("source %s: watermark %d, source seq %d", s.Name(), marks[s.Name()], want)
		}
	}

	// Update independence survived the wire: no source was ever queried
	// — not by the clients, not during recovery, not while quarantined.
	if n := env.TotalQueryAttempts(); n != 0 {
		t.Errorf("pipeline issued %d ad-hoc source queries", n)
	}

	salesStats := transports["sales"].Stats()
	t.Logf("soak seed=%d: marks=%v, breaker opens=%d cycles=%d, sales faults=%+v",
		seed, marks, salesClient.Breaker().Opens(), salesClient.Breaker().Cycles(), salesStats)
}

// soakFingerprint captures every warehouse relation's content.
func soakFingerprint(g *source.Integrator) string {
	out := ""
	w := g.Warehouse()
	for _, n := range w.Names() {
		r, _ := w.Relation(n)
		out += fmt.Sprintf("%s=%s\n", n, r.Fingerprint())
	}
	return out
}
