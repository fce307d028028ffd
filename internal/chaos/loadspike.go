package chaos

// Load-spike injection: an open-loop load generator for overload soaks.
// It drives an operation with a baseline worker pool, slams it with a
// much larger pool for the burst phase, then cools down — the classic
// traffic-spike shape that admission control exists to survive. Workers
// label every call's outcome ("ok", "shed", ...) and the report counts
// the calls per label, so the caller can check that the spike both shed
// and got work through. Like the crash points, the injector imports only
// the standard library.

import (
	"context"
	"sync"
	"time"
)

// SpikeConfig shapes one load spike.
type SpikeConfig struct {
	// Baseline is the worker count of the warmup and cooldown phases
	// (default 1).
	Baseline int
	// Peak is the worker count of the burst phase (default 4×Baseline) —
	// offered load relative to baseline, not an RPS target: each worker
	// issues calls back to back, so the spike is open-throttle.
	Peak int
	// Warmup, Burst and Cooldown are the phase durations. Zero skips the
	// phase (a zero Burst makes the spike a no-op).
	Warmup, Burst, Cooldown time.Duration
}

// SpikeReport is the outcome of one RunSpike.
type SpikeReport struct {
	// Calls is the total operations issued across all phases.
	Calls int64
	// ByLabel counts the calls per label returned by the operation.
	ByLabel map[string]int64
}

// RunSpike drives op through warmup → burst → cooldown and returns the
// aggregated report. op receives the phase context and its worker index
// and returns an outcome label ("ok", "shed", whatever the caller wants
// to count); it should be safe for concurrent use. Canceling ctx ends
// the spike early; the report covers calls made so far.
func RunSpike(ctx context.Context, cfg SpikeConfig, op func(ctx context.Context, worker int) string) SpikeReport {
	if cfg.Baseline <= 0 {
		cfg.Baseline = 1
	}
	if cfg.Peak <= 0 {
		cfg.Peak = 4 * cfg.Baseline
	}
	rep := SpikeReport{ByLabel: map[string]int64{}}
	var mu sync.Mutex

	runPhase := func(workers int, d time.Duration) {
		if d <= 0 || ctx.Err() != nil {
			return
		}
		pctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Counted locally: no shared lock on the hot path.
				local := map[string]int64{}
				for pctx.Err() == nil {
					local[op(pctx, w)]++
				}
				mu.Lock()
				for label, n := range local {
					rep.Calls += n
					rep.ByLabel[label] += n
				}
				mu.Unlock()
			}(w)
		}
		wg.Wait()
	}

	runPhase(cfg.Baseline, cfg.Warmup)
	runPhase(cfg.Peak, cfg.Burst)
	runPhase(cfg.Baseline, cfg.Cooldown)
	return rep
}
