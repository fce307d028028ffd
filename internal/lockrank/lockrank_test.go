package lockrank

import (
	"strings"
	"testing"
)

// withChecking runs f with checking on, as a test binary's TestMain
// leaves it, and then requires every lock f took to be released.
func withChecking(t *testing.T, f func()) {
	t.Helper()
	checking = true
	defer func() { checking = false }()
	f()
	if len(held) != 0 {
		t.Errorf("locks still recorded as held: %v", held)
	}
}

// TestRanksTotalOrder: the classes, listed outer to inner, have the ranks
// 1, 2, … in that order, each with its own name.
func TestRanksTotalOrder(t *testing.T) {
	classes := []Class{Source{}, SourceDelivery{}, Integrator{}, Server{}, BootLedger{}, Controller{},
		Link{}, RemoteClient{}, Journal{}, ReplicaClient{}, ReplicaLog{}, Ladder{}, Breaker{},
		EvalContext{}, Relation{}, Chaos{}, ObservedGauge{}, Registry{}, Tracer{}, TraceStore{}, Span{}}
	if len(classes) != int(rankCount)-1 {
		t.Fatalf("%d classes, %d ranks", len(classes), rankCount-1)
	}
	seen := map[string]bool{}
	for i, c := range classes {
		r, name := c.class()
		if r != Rank(i+1) || name == "" || seen[name] {
			t.Errorf("%T: rank %d named %q, want rank %d under a name of its own", c, r, name, i+1)
		}
		seen[name] = true
	}
}

func TestReversedPairPanics(t *testing.T) {
	withChecking(t, func() {
		var inner Mutex[Span]
		var outer Mutex[Source]
		inner.Lock()
		defer inner.Unlock()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "source.Source.mu taken while holding trace.Span.mu") {
				t.Errorf("panic %q does not name both classes", msg)
			}
		}()
		outer.Lock()
		t.Error("taking source.Source.mu under trace.Span.mu did not panic")
	})
}

// TestNestingAllowed: two locks of one class nest, unlocks may be deferred
// or run on another goroutine, and a released lock no longer counts.
func TestNestingAllowed(t *testing.T) {
	withChecking(t, func() {
		var a, b Mutex[Relation]
		var outer Mutex[Source]
		func() {
			outer.Lock()
			defer outer.Unlock()
			a.Lock()
			defer a.Unlock()
			b.Lock()
			defer b.Unlock()
		}()
		a.Lock()
		done := make(chan struct{})
		go func() { a.Unlock(); close(done) }()
		<-done
		outer.Lock()
		outer.Unlock()
	})
}

func TestNoAllocsWhenOff(t *testing.T) {
	var m Mutex[Journal]
	if n := testing.AllocsPerRun(1000, func() { m.Lock(); m.Unlock() }); n != 0 {
		t.Errorf("Lock+Unlock allocates %v times with checking off", n)
	}
}

// TestGoroutineIdentity: both identities are stable within a goroutine and
// differ between two live ones.
func TestGoroutineIdentity(t *testing.T) {
	for name, id := range map[string]func() uintptr{"goroutine": goroutine, "stackID": stackID} {
		here, other := id(), make(chan uintptr)
		go func() { other <- id() }()
		if again, there := id(), <-other; again != here || there == here {
			t.Errorf("%s: %d, then %d on one goroutine, %d on another", name, here, again, there)
		}
	}
}
