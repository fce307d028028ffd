package chaos

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunSpikePhases: the burst phase runs more workers than the
// baseline phases, and every call lands in the report.
func TestRunSpikePhases(t *testing.T) {
	var peak, inflight, calls atomic.Int64
	rep := RunSpike(context.Background(), SpikeConfig{
		Baseline: 2,
		Peak:     8,
		Warmup:   30 * time.Millisecond,
		Burst:    50 * time.Millisecond,
		Cooldown: 30 * time.Millisecond,
	}, func(ctx context.Context, worker int) string {
		n := inflight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		calls.Add(1)
		return "ok"
	})
	if rep.Calls == 0 || rep.Calls != calls.Load() {
		t.Fatalf("report holds %d calls, op ran %d", rep.Calls, calls.Load())
	}
	if got := rep.ByLabel["ok"]; got != rep.Calls {
		t.Fatalf("ok count %d != total calls %d", got, rep.Calls)
	}
	if p := peak.Load(); p < 3 {
		t.Fatalf("peak concurrency %d, want >2 during burst", p)
	}
}

// TestRunSpikeLabels: calls are counted per label.
func TestRunSpikeLabels(t *testing.T) {
	var n atomic.Int64
	rep := RunSpike(context.Background(), SpikeConfig{
		Peak:  2,
		Burst: 30 * time.Millisecond,
	}, func(ctx context.Context, worker int) string {
		time.Sleep(time.Millisecond)
		if n.Add(1)%2 == 0 {
			return "shed"
		}
		return "ok"
	})
	ok, shed := rep.ByLabel["ok"], rep.ByLabel["shed"]
	if ok == 0 || shed == 0 {
		t.Fatalf("labels not split: ok=%d shed=%d", ok, shed)
	}
	if ok+shed != rep.Calls || len(rep.ByLabel) != 2 {
		t.Fatalf("label counts %v do not sum to the %d calls", rep.ByLabel, rep.Calls)
	}
}

// TestRunSpikeCancel: canceling the context ends the spike early.
func TestRunSpikeCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	rep := RunSpike(ctx, SpikeConfig{
		Peak:  2,
		Burst: 10 * time.Second, // would run far too long without cancel
	}, func(ctx context.Context, worker int) string {
		time.Sleep(time.Millisecond)
		return "ok"
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("spike ran %v after cancel", elapsed)
	}
	if rep.Calls == 0 {
		t.Fatal("no calls before cancel")
	}
}
