// Package chaos is the deterministic fault-injection harness of the
// maintenance pipeline. It has two halves:
//
//   - Crash points: named Point() calls compiled into the durability
//     hot spots (journal append, snapshot write, refresh apply). In
//     production they are a single atomic load; under test, Arm makes
//     the n-th traversal of a point return an injected error, which the
//     soak tests treat as a process crash followed by recovery from
//     disk. Hold parks a traversal instead, so a test can act while a
//     background goroutine sits inside a durability step.
//
//   - Network faults: FaultyTransport, an http.RoundTripper that drops
//     requests, loses responses the server already handled (so the
//     client fetches again and the consumer sees duplicates), answers
//     5xx, delays, and truncates bodies with seeded probabilities;
//     Partition cuts and heals hosts on a script; RunSpike drives load
//     phases. Given the same seed and request sequence a transport rolls
//     the same faults, so every soak failure is reproducible from its
//     logged seed.
//
// The package imports nothing from the rest of the repo but lockrank,
// so every layer (journal, snapshot, maintain, source) can embed crash
// points without import cycles.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dwcomplement/internal/lockrank"
)

// armedAny is the fast-path flag: when false (the production state),
// Point returns immediately after one atomic load.
var armedAny atomic.Bool

var (
	mu     lockrank.Mutex[lockrank.Chaos]
	points map[string]*pointState
)

// pointState is the book-keeping of one named crash point.
type pointState struct {
	hits   uint64 // traversals so far
	failAt uint64 // fail on this traversal (0 = never)
	err    error  // injected error
	fired  bool

	// Set by Hold: traversals wait for gate to close, and the first to
	// arrive closes reached.
	gate    chan struct{}
	reached chan struct{}
	arrived bool
}

// Point marks a crash point in durability code. It returns nil unless a
// test armed this point and the armed traversal count is reached, in
// which case it returns the injected error exactly once. Callers must
// propagate the error as if the operation had failed at that instant.
func Point(name string) error {
	if !armedAny.Load() {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	st, ok := points[name]
	if !ok {
		return nil
	}
	st.hits++
	hit := st.hits
	if gate := st.gate; gate != nil {
		if !st.arrived {
			st.arrived = true
			close(st.reached)
		}
		mu.Unlock()
		<-gate
		mu.Lock()
	}
	if st.failAt != 0 && hit == st.failAt && !st.fired {
		st.fired = true
		return st.err
	}
	return nil
}

// Hold makes every traversal of the named point wait until release is
// called; reached is closed when the first one arrives. It is how a test
// parks a background goroutine inside a durability step and acts while
// it is there. Hold keeps a failure armed earlier with Arm: the held
// traversal returns the injected error once released.
func Hold(name string) (reached <-chan struct{}, release func()) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*pointState)
	}
	st, ok := points[name]
	if !ok {
		st = &pointState{}
		points[name] = st
	}
	gate := make(chan struct{})
	st.gate, st.reached, st.arrived = gate, make(chan struct{}), false
	armedAny.Store(true)
	var once sync.Once
	return st.reached, func() {
		once.Do(func() {
			mu.Lock()
			if st.gate == gate {
				st.gate = nil
			}
			mu.Unlock()
			close(gate)
		})
	}
}

// Arm makes the failAt-th traversal of the named point return err
// (failAt is 1-based; each armed point fires at most once). It returns
// a disarm function; tests should defer it. Arming the same point again
// re-arms it with fresh counters.
func Arm(name string, failAt uint64, err error) (disarm func()) {
	if err == nil {
		err = fmt.Errorf("chaos: injected crash at %s", name)
	}
	mu.Lock()
	if points == nil {
		points = make(map[string]*pointState)
	}
	points[name] = &pointState{failAt: failAt, err: err}
	armedAny.Store(true)
	mu.Unlock()
	return func() { Disarm(name) }
}

// Disarm removes the named point's armed state (hit counting stops too).
func Disarm(name string) {
	mu.Lock()
	delete(points, name)
	if len(points) == 0 {
		armedAny.Store(false)
	}
	mu.Unlock()
}

// Reset disarms every point. Tests that arm several points in one
// schedule call Reset between iterations.
func Reset() {
	mu.Lock()
	points = nil
	armedAny.Store(false)
	mu.Unlock()
}

// Hits returns how many times the named point has been traversed since
// it was armed (0 when not armed). Useful for sizing failAt sweeps.
func Hits(name string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if st, ok := points[name]; ok {
		return st.hits
	}
	return 0
}

// Fired reports whether the named point's injected error was returned.
func Fired(name string) bool {
	mu.Lock()
	defer mu.Unlock()
	st, ok := points[name]
	return ok && st.fired
}
