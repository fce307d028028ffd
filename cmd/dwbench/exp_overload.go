package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dwcomplement/internal/admission"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/source"
	"dwcomplement/internal/workload"
)

// e19 — overload protection under a 4× load spike. A miniature
// integrator deployment (the Figure 1 pipeline guarded by the same
// admission controller dwserve mounts) is slammed with four times its
// measured capacity while report delivery keeps refreshing the
// warehouse. The gates are the ones an operator cares about during an
// incident: goodput holds near capacity instead of collapsing, shed
// requests cost microseconds not seconds, readiness and report
// delivery are never refused, and when the dust settles the warehouse
// still equals an oracle recomputation — overload may slow the
// warehouse down, it must never corrupt it.
//
// dwbench cannot import cmd/dwserve (both are package main), so the
// mini-server recreates dwserve's wiring from the same primitives:
// admission.Controller in front, RWMutex-serialized warehouse behind,
// queries Acquire (sheddable), deliveries Wait (never shed).
func e19() experiment {
	return experiment{
		id:    "E19",
		title: "overload: goodput, shed latency and convergence under a 4× spike",
		paper: "Figure 1 under overload (operational; beyond the paper's formal scope)",
		run: func(c *config) error {
			const capacityUnits = 4
			// Per-query service time past the warehouse read: stands in for
			// response serialization and client I/O, and keeps the offered
			// concurrency real on single-core CI runners (a purely CPU-bound
			// op would serialize in the scheduler and never contend).
			const service = 500 * time.Microsecond
			measure := 1500 * time.Millisecond
			burst := 2 * time.Second
			if c.quick {
				measure = 300 * time.Millisecond
				burst = 500 * time.Millisecond
			}

			sc := workload.Figure1(false)
			comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
			env, err := source.NewEnvironment(comp, map[string][]string{
				"sales":   {"Sale"},
				"company": {"Emp"},
			})
			if err != nil {
				return err
			}
			integ := env.Integrator
			sales, _ := env.Source("sales")
			company, _ := env.Source("company")
			// Seed clerks so inserted sales join Emp rows and every refresh
			// touches the view.
			var mu sync.RWMutex
			for i := 0; i < 8; i++ {
				u := catalog.NewUpdate().MustInsert("Emp", sc.DB,
					relation.String_(fmt.Sprintf("clerk-%d", i)), relation.Int(int64(20+i)))
				if _, err := company.Apply(u); err != nil {
					return err
				}
			}

			// The query op the whole experiment is calibrated against: read
			// the maintained view under the read lock, then the fixed
			// service time.
			readSold := func() int {
				mu.RLock()
				defer mu.RUnlock()
				sold, ok := integ.Warehouse().Relation("Sold")
				if !ok {
					return 0
				}
				return sold.Len()
			}
			queryOnce := func() {
				readSold()
				time.Sleep(service)
			}

			// The delivery worker runs through BOTH phases: capacity must be
			// measured under the same refresh load the burst pays, or the
			// goodput ratio compares a quiet server to a maintaining one.
			adm := admission.New(admission.Config{
				Capacity:   capacityUnits,
				QueryQueue: -1, // full capacity ⇒ shed now; sheds must be fast
			})
			deliveryStop := make(chan struct{})
			deliveryDone := make(chan struct{})
			var deliveries atomic.Int64
			go func() {
				defer close(deliveryDone)
				for i := 0; ; i++ {
					select {
					case <-deliveryStop:
						return
					default:
					}
					release, werr := adm.Wait(context.Background(), admission.Delivery, 2)
					if werr != nil {
						continue
					}
					u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
						relation.String_(fmt.Sprintf("spike-item-%d", i)),
						relation.String_(fmt.Sprintf("clerk-%d", i%8)))
					mu.Lock()
					_, aerr := sales.Apply(u)
					mu.Unlock()
					release()
					if aerr == nil {
						deliveries.Add(1)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()

			// Phase 1 — capacity: closed loop, exactly capacityUnits workers,
			// no admission for the queries. This is the most the server can
			// do; the overload gate is goodput relative to it.
			var capCalls atomic.Int64
			func() {
				ctx, cancel := context.WithTimeout(context.Background(), measure)
				defer cancel()
				var wg sync.WaitGroup
				for w := 0; w < capacityUnits; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for ctx.Err() == nil {
							queryOnce()
							capCalls.Add(1)
						}
					}()
				}
				wg.Wait()
			}()
			capacityQPS := float64(capCalls.Load()) / measure.Seconds()

			// Phase 2 — the spike: 4× capacity offered through the admission
			// controller, with the delivery worker still refreshing the
			// warehouse and a readiness prober in the mix.
			var readyzFail atomic.Int64
			rep := chaos.RunSpike(context.Background(), chaos.SpikeConfig{
				Seed:     c.seed,
				Baseline: capacityUnits,
				Peak:     4 * capacityUnits,
				Warmup:   measure / 4,
				Burst:    burst,
				Cooldown: measure / 4,
				// Open-loop clients pace themselves: 16 workers at a ~500µs
				// think still offer ~8x the measured capacity, but without
				// the think the shed fast-path becomes a busy-spin that
				// monopolizes single-core runners and starves the very
				// queries admission admitted.
				Think: service,
			}, func(ctx context.Context, worker int) string {
				if worker == 0 {
					// The readiness prober: Health class, must never shed.
					release, herr := adm.Acquire(ctx, admission.Health, 1)
					if herr != nil {
						readyzFail.Add(1)
						return "readyz-fail"
					}
					release()
					time.Sleep(service)
					return "readyz"
				}
				release, qerr := adm.Acquire(ctx, admission.Query, 1)
				if qerr != nil {
					return "shed"
				}
				queryOnce()
				release()
				return "ok"
			})
			close(deliveryStop)
			<-deliveryDone

			goodputQPS := float64(rep.BurstStats("ok").Count) / burst.Seconds()
			goodputFrac := goodputQPS / capacityQPS
			shedP95 := rep.BurstStats("shed").Quantile(0.95)
			shed := rep.Stats("shed").Count

			c.table([]string{"phase", "offered", "result"}, [][]string{
				{"capacity", fmt.Sprintf("%d workers closed-loop", capacityUnits), fmt.Sprintf("%.0f q/s", capacityQPS)},
				{"burst", fmt.Sprintf("%d workers (4x)", 4*capacityUnits), fmt.Sprintf("%.0f q/s goodput (%.0f%% of capacity)", goodputQPS, 100*goodputFrac)},
				{"sheds", fmt.Sprint(shed), fmt.Sprintf("p95 %s", shedP95)},
				{"deliveries", fmt.Sprint(deliveries.Load()), fmt.Sprintf("%d shed (must be 0)", adm.Shed(admission.Delivery))},
			})
			c.metric("capacityQPS", capacityQPS)
			c.metric("goodputQPS", goodputQPS)
			c.metric("goodputFrac", goodputFrac)
			c.metric("shedP95Ms", float64(shedP95.Nanoseconds())/1e6)
			c.metric("shedCount", float64(shed))
			c.metric("deliveryAcks", float64(deliveries.Load()))

			// The overload gates.
			if shed == 0 {
				return fmt.Errorf("the spike never shed: offered load did not exceed capacity")
			}
			// The two timing gates hold on a host the experiment has to
			// itself (CI's "Overload smoke (E19)" step); beside other test
			// binaries the capacity phase and the burst see different CPUs.
			if goodputFrac < 0.8 && !c.sharedHost {
				return fmt.Errorf("goodput collapsed under overload: %.0f q/s is %.0f%% of the %.0f q/s capacity (floor 80%%)",
					goodputQPS, 100*goodputFrac, capacityQPS)
			}
			if shedP95 >= 5*time.Millisecond && !c.sharedHost {
				return fmt.Errorf("shedding is not cheap: p95 %s (must be <5ms)", shedP95)
			}
			if n := readyzFail.Load(); n != 0 {
				return fmt.Errorf("readiness probe shed %d times under overload", n)
			}
			if n := adm.Shed(admission.Delivery); n != 0 {
				return fmt.Errorf("report delivery shed %d times (Wait must never shed)", n)
			}
			if deliveries.Load() == 0 {
				return fmt.Errorf("no reports were delivered during the spike")
			}

			// Convergence: the warehouse maintained through the whole spike
			// equals an oracle recomputation from the sources' true state.
			combined, err := env.CombinedState()
			if err != nil {
				return err
			}
			oracle, err := comp.MaterializeWarehouseCtx(nil, combined)
			if err != nil {
				return err
			}
			for name, want := range oracle {
				got, ok := integ.Warehouse().Relation(name)
				if !ok {
					return fmt.Errorf("warehouse lost relation %s", name)
				}
				if !got.Equal(want) {
					return fmt.Errorf("relation %s diverged from the oracle after the spike", name)
				}
			}
			c.printf("  under a 4x spike the warehouse kept %.0f%% of its capacity as goodput,\n", 100*goodputFrac)
			c.printf("  shed the excess in %s at p95, never refused readiness or report\n", shedP95)
			c.printf("  delivery, and converged to the oracle (%d refreshes mid-spike)\n", deliveries.Load())
			return nil
		},
	}
}
