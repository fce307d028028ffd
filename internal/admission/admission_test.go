package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwcomplement/internal/testmain"
)

func TestMain(m *testing.M) { testmain.Run(m) }

// TestAcquireReleaseBasic: work within capacity is admitted immediately
// and release restores the full capacity.
func TestAcquireReleaseBasic(t *testing.T) {
	c := New(Config{Capacity: 2})
	rel1, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	rel2, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if got := c.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	rel1()
	rel2()
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
	if got := c.Admitted(Query); got != 2 {
		t.Fatalf("Admitted(Query) = %d, want 2", got)
	}
}

// TestWeightClamp: a weight above capacity is clamped so the request
// stays grantable instead of deadlocking the queue.
func TestWeightClamp(t *testing.T) {
	c := New(Config{Capacity: 2})
	rel, err := c.Acquire(context.Background(), Query, 10)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if got := c.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want clamped 2", got)
	}
	rel()
}

// TestQueueFullShedsFast: with no queue, the request over capacity is
// refused immediately with ErrShed.
func TestQueueFullShedsFast(t *testing.T) {
	c := New(Config{Capacity: 1, QueryQueue: -1})
	rel, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()
	start := time.Now()
	_, err = c.Acquire(context.Background(), Query, 1)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("second acquire err = %v, want ErrShed", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("fast shed took %v", d)
	}
	if got := c.Shed(Query); got != 1 {
		t.Fatalf("Shed(Query) = %d, want 1", got)
	}
}

// TestQueueTimeoutIsStall: a queued request that waits out the queue
// timeout is shed and counted as a stall.
func TestQueueTimeoutIsStall(t *testing.T) {
	c := New(Config{Capacity: 1, QueueTimeout: 20 * time.Millisecond})
	rel, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()
	_, err = c.Acquire(context.Background(), Query, 1)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("queued acquire err = %v, want ErrShed", err)
	}
	if got := c.Stalls(); got != 1 {
		t.Fatalf("Stalls = %d, want 1", got)
	}
}

// TestContextCancelWhileQueued: the caller's context, not ErrShed, is
// the error when the caller gives up first — and it is not a shed.
func TestContextCancelWhileQueued(t *testing.T) {
	c := New(Config{Capacity: 1, QueueTimeout: time.Minute})
	rel, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, Query, 1)
		done <- err
	}()
	// Give the goroutine time to enqueue, then cancel.
	for c.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := c.Shed(Query); got != 0 {
		t.Fatalf("Shed(Query) = %d, want 0 (cancel is not a shed)", got)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("Queued = %d, want 0 after abandon", got)
	}
}

// TestHealthBypassesCapacity: health probes are admitted even when the
// controller is saturated.
func TestHealthBypassesCapacity(t *testing.T) {
	c := New(Config{Capacity: 1})
	rel, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("saturate: %v", err)
	}
	defer rel()
	relH, err := c.Acquire(context.Background(), Health, 1)
	if err != nil {
		t.Fatalf("health acquire under saturation: %v", err)
	}
	relH()
}

// TestPriorityOrder: when capacity frees up, queued delivery work is
// granted before queued queries, and queries before traces, regardless
// of arrival order.
func TestPriorityOrder(t *testing.T) {
	c := New(Config{Capacity: 1, QueueTimeout: time.Minute})
	rel, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("saturate: %v", err)
	}

	var order []Class
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Arrival order: trace, query, delivery. Grant order must invert it.
	// Each waiter is enqueued only after the previous one is visibly
	// queued, so arrival order is deterministic.
	queuedCount := 0
	for _, cl := range []Class{Trace, Query, Delivery} {
		queuedCount++
		wg.Add(1)
		go func(cl Class) {
			defer wg.Done()
			r, err := c.Acquire(context.Background(), cl, 1)
			if err != nil {
				t.Errorf("acquire %v: %v", cl, err)
				return
			}
			mu.Lock()
			order = append(order, cl)
			mu.Unlock()
			r()
		}(cl)
		deadline := time.Now().Add(time.Second)
		for c.Queued() < queuedCount {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", queuedCount)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rel() // free the slot; grants should cascade in priority order
	wg.Wait()
	want := []Class{Delivery, Query, Trace}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("granted %d waiters, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

// TestWaitNeverSheds: Wait blocks past the queue timeout and past a
// full queue, succeeding once capacity frees.
func TestWaitNeverSheds(t *testing.T) {
	c := New(Config{Capacity: 1, DeliveryQueue: -1, QueueTimeout: 5 * time.Millisecond})
	rel, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("saturate: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		r, err := c.Wait(context.Background(), Delivery, 1)
		if err == nil {
			r()
		}
		done <- err
	}()
	// Outlast the queue timeout several times over, then release.
	time.Sleep(30 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("Wait returned early: %v", err)
	default:
	}
	rel()
	if err := <-done; err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := c.Shed(Delivery); got != 0 {
		t.Fatalf("Shed(Delivery) = %d, want 0", got)
	}
}

// TestNoOvertake: a newcomer must not steal capacity from an
// equal-priority waiter that queued first.
func TestNoOvertake(t *testing.T) {
	c := New(Config{Capacity: 1, QueueTimeout: time.Minute})
	rel, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("saturate: %v", err)
	}
	var first atomic.Bool
	go func() {
		r, err := c.Acquire(context.Background(), Query, 1)
		if err != nil {
			return
		}
		first.Store(true)
		r()
	}()
	for c.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	rel() // the queued waiter is granted under the lock in release…
	// …so a fresh acquire must queue behind nothing (slot taken) or
	// succeed only after the first waiter ran.
	r2, err := c.Acquire(context.Background(), Query, 1)
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	defer r2()
	if !first.Load() {
		t.Fatal("newcomer overtook the queued waiter")
	}
}

// TestAdmissionHammer races many acquirers of every class against each
// other under -race; the invariant checked is that weighted in-use
// never exceeds capacity for non-health work and all counters balance.
// Named *Hammer* so CI's race-hammer job repeats it.
func TestAdmissionHammer(t *testing.T) {
	const capacity = 8
	c := New(Config{Capacity: capacity, QueueTimeout: 10 * time.Millisecond})
	var over atomic.Int64
	var inflight atomic.Int64
	var wg sync.WaitGroup
	classes := []Class{Delivery, Query, Query, Trace}
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := classes[g%len(classes)]
			for i := 0; i < 50; i++ {
				weight := 1 + (g+i)%2
				rel, err := c.Acquire(context.Background(), cl, weight)
				if err != nil {
					if !errors.Is(err, ErrShed) {
						t.Errorf("acquire: %v", err)
					}
					continue
				}
				if n := inflight.Add(int64(weight)); n > capacity {
					over.Add(1)
				}
				inflight.Add(int64(-weight))
				rel()
			}
		}(g)
	}
	wg.Wait()
	if over.Load() > 0 {
		t.Fatalf("weighted in-flight exceeded capacity %d times", over.Load())
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("Queued after drain = %d, want 0", got)
	}
	total := c.Admitted(Delivery) + c.Admitted(Query) + c.Admitted(Trace) +
		c.Shed(Delivery) + c.Shed(Query) + c.Shed(Trace)
	if total != 32*50 {
		t.Fatalf("admitted+shed = %d, want %d", total, 32*50)
	}
}

// TestClassString covers the labels used by metrics.
func TestClassString(t *testing.T) {
	want := map[Class]string{Health: "health", Delivery: "delivery", Query: "query", Trace: "trace"}
	for cl, s := range want {
		if cl.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", cl, cl.String(), s)
		}
	}
	if got := Class(99).String(); got != "class(99)" {
		t.Errorf("unknown class label = %q", got)
	}
	if got := fmt.Sprint(Classes()); got != "[health delivery query trace]" {
		t.Errorf("Classes() = %v", got)
	}
}
