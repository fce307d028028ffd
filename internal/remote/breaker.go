package remote

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes traffic; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen lets exactly one probe request through; its
	// outcome decides between closing and re-opening.
	BreakerHalfOpen
	// BreakerOpen fails fast without touching the network until the
	// cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// Breaker is a per-source circuit breaker with the classic three-state
// machine. Closed counts consecutive failures and trips to open at the
// threshold; open fails fast until the cooldown elapses, then admits a
// single half-open probe; a successful probe closes the circuit, a
// failed one re-opens it and restarts the cooldown. The clock is
// injectable so state transitions are deterministically testable.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool
	opens     int // transitions into open
	cycles    int // completed open → half-open → closed recoveries
	now       func() time.Time
}

// NewBreaker builds a closed breaker that opens after threshold
// consecutive failures (minimum 1) and admits a probe after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock injects a clock for deterministic tests.
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// Allow reports whether a request may proceed. In the open state it
// returns false until the cooldown has elapsed, at which point the
// breaker moves to half-open and admits exactly one probe; further
// calls fail fast until that probe reports its outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a completed request: it resets the failure count and,
// from half-open, closes the circuit (completing one recovery cycle).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.cycles++
	}
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// Failure reports a failed request: from closed it counts toward the
// threshold; a failed half-open probe re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.trip()
	case BreakerOpen:
		// Late failure from a request admitted before the trip: the
		// circuit is already open, nothing more to record.
	}
	b.probing = false
}

// Abandon reports that an admitted request was deliberately canceled
// (shutdown) before completing: it releases the
// half-open probe slot without counting success or failure, so a
// canceled probe cannot wedge the breaker half-open or re-trip it.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// trip moves to open and stamps the cooldown start. Caller holds mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.opens++
	b.failures = 0
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Cycles returns how many full open → half-open → closed recoveries
// have completed — the soak asserts at least one.
func (b *Breaker) Cycles() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cycles
}
