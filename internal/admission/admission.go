// Package admission is the overload-protection layer of the serving
// stack: a weighted concurrency limiter with bounded per-class wait
// queues, strict priority classes (health > delivery > queries >
// traces), and a degradation ladder that sheds the cheapest work first
// under sustained pressure.
//
// The paper's deployment argument — a complement-maintained warehouse
// answers queries without ever touching its sources — only holds while
// the warehouse node itself stays up. One burst of expensive joins must
// not starve maintenance or take the process down, so the controller
// bounds concurrent work, queues short overloads in bounded per-class
// FIFOs, and sheds the excess immediately (callers map ErrShed to
// 429 + Retry-After): a shed request costs microseconds instead of
// queueing to death.
//
// Like internal/chaos and internal/obs, the package imports only the
// standard library, so any layer can use it without import cycles.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dwcomplement/internal/lockrank"
)

// Class is a request's priority class. Lower values are more important:
// on every release the controller grants waiters in class order, FIFO
// within a class, so maintenance is never starved by a query burst.
type Class int

const (
	// Health is liveness and readiness traffic (/healthz, /readyz,
	// /metrics). It is never queued and never shed — a probe that times
	// out under load would tell the load balancer to remove the one node
	// that is still making progress.
	Health Class = iota
	// Delivery is maintenance traffic: reported source updates, whether
	// over HTTP or from an in-process poll loop. It sheds only when its
	// (generous) queue is full — backpressure the reporting channel
	// already knows how to absorb by retrying.
	Delivery
	// Query is translated source queries and other warehouse reads.
	Query
	// Trace is diagnostics: traces, stats, explain. First to shed.
	Trace

	numClasses
)

// String names the class for error messages and metric labels.
func (c Class) String() string {
	switch c {
	case Health:
		return "health"
	case Delivery:
		return "delivery"
	case Query:
		return "query"
	case Trace:
		return "trace"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists every priority class in priority order, for metric
// registration sweeps.
func Classes() []Class { return []Class{Health, Delivery, Query, Trace} }

// ErrShed reports that admission control refused a request — its wait
// queue was full, or it waited the full queue timeout without a slot
// freeing up. Servers map it to 429 with a Retry-After header; the
// response must stay this cheap, that is the whole point.
var ErrShed = errors.New("admission: load shed")

// Config shapes a Controller. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Capacity is the weighted concurrent-work limit (default 64).
	Capacity int
	// DeliveryQueue, QueryQueue and TraceQueue bound the per-class wait
	// queues (entries, not weight). Zero means the default — 4×, 2× and
	// ¼× Capacity respectively — and a negative value means no queue at
	// all: anything beyond capacity sheds immediately. Health never
	// queues.
	DeliveryQueue int
	QueryQueue    int
	TraceQueue    int
	// QueueTimeout is the longest a queued request waits before it is
	// shed (default 250ms). A timeout here is a stall — admitted work is
	// not completing — and is what arms the ladder's last rung.
	QueueTimeout time.Duration
	// Ladder configures the degradation ladder (see LadderConfig).
	Ladder LadderConfig
}

// waiter is one queued acquire. ready is closed under the controller's
// lock when the waiter is granted; granted disambiguates the race
// between a grant and a timeout/cancellation.
type waiter struct {
	weight  int
	ready   chan struct{}
	granted bool
}

// Controller is the admission controller: a weighted semaphore with
// bounded priority wait queues and an attached degradation ladder.
type Controller struct {
	capacity     int
	queueCap     [numClasses]int
	queueTimeout time.Duration
	ladder       *Ladder

	mu           lockrank.Mutex[lockrank.Controller]
	inuse        int // weighted admitted work
	queuedWeight int
	queues       [numClasses][]*waiter

	admitted [numClasses]atomic.Int64
	shed     [numClasses]atomic.Int64
	stalls   atomic.Int64
}

// New builds a controller from cfg, applying defaults for zero fields.
func New(cfg Config) *Controller {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 250 * time.Millisecond
	}
	c := &Controller{
		capacity:     cfg.Capacity,
		queueTimeout: cfg.QueueTimeout,
		ladder:       NewLadder(cfg.Ladder),
	}
	queueDefault := func(v, def int) int {
		if v < 0 {
			return 0
		}
		if v == 0 {
			return def
		}
		return v
	}
	c.queueCap[Delivery] = queueDefault(cfg.DeliveryQueue, 4*cfg.Capacity)
	c.queueCap[Query] = queueDefault(cfg.QueryQueue, 2*cfg.Capacity)
	c.queueCap[Trace] = queueDefault(cfg.TraceQueue, max(1, cfg.Capacity/4))
	return c
}

// Capacity returns the weighted concurrency limit.
func (c *Controller) Capacity() int { return c.capacity }

// Ladder returns the attached degradation ladder.
func (c *Controller) Ladder() *Ladder { return c.ladder }

// Level returns the current degradation-ladder level.
func (c *Controller) Level() Level { return c.ladder.Level() }

// InFlight returns the weighted admitted work currently in flight.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inuse
}

// Queued returns the number of waiters across all class queues.
func (c *Controller) Queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, q := range c.queues {
		n += len(q)
	}
	return n
}

// Admitted returns how many acquires of cl have been granted.
func (c *Controller) Admitted(cl Class) int64 { return c.admitted[cl].Load() }

// Shed returns how many acquires of cl have been refused.
func (c *Controller) Shed(cl Class) int64 { return c.shed[cl].Load() }

// Stalls returns how many queued requests timed out waiting — the
// signal that admitted work is not completing.
func (c *Controller) Stalls() int64 { return c.stalls.Load() }

// Acquire admits one unit of work of the given class and weight,
// blocking in the class's bounded queue while the controller is at
// capacity. It returns a release function that must be called exactly
// once when the work finishes. It fails fast with an error wrapping
// ErrShed when the queue is full or the queue timeout passes, and with
// ctx.Err() when the caller gives up first. Health is always admitted
// immediately, even beyond capacity.
func (c *Controller) Acquire(ctx context.Context, cl Class, weight int) (func(), error) {
	return c.acquire(ctx, cl, weight, false)
}

// Wait is Acquire without shedding: the queue is unbounded for this
// call and there is no queue timeout, so it fails only when ctx is
// canceled. In-process report delivery uses it — maintenance must
// never be shed, only deferred behind the priority queue.
func (c *Controller) Wait(ctx context.Context, cl Class, weight int) (func(), error) {
	return c.acquire(ctx, cl, weight, true)
}

func (c *Controller) acquire(ctx context.Context, cl Class, weight int, wait bool) (func(), error) {
	if weight <= 0 {
		weight = 1
	}
	if weight > c.capacity {
		weight = c.capacity // keep every request grantable
	}
	// Idempotent: handlers defer release and sometimes also call it
	// early; only the first call returns the weight.
	var once sync.Once
	release := func() { once.Do(func() { c.release(weight) }) }

	c.mu.Lock()
	if cl == Health {
		// Probes bypass the limiter entirely (capacity may be exceeded);
		// they are constant-cost and must never observe queueing.
		c.inuse += weight
		c.observeLocked(false)
		c.mu.Unlock()
		c.admitted[cl].Add(1)
		return release, nil
	}
	if c.inuse+weight <= c.capacity && !c.waitersAheadLocked(cl) {
		c.inuse += weight
		c.observeLocked(false)
		c.mu.Unlock()
		c.admitted[cl].Add(1)
		return release, nil
	}
	if !wait && len(c.queues[cl]) >= c.queueCap[cl] {
		// Fast shed: the queue is full, so refusing immediately is the
		// only bounded answer left for this class.
		c.observeLocked(false)
		c.mu.Unlock()
		c.shed[cl].Add(1)
		return nil, fmt.Errorf("admission: %s queue full: %w", cl, ErrShed)
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	c.queues[cl] = append(c.queues[cl], w)
	c.queuedWeight += weight
	c.observeLocked(false)
	c.mu.Unlock()

	var timeout <-chan time.Time
	if !wait {
		t := time.NewTimer(c.queueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.ready:
		c.admitted[cl].Add(1)
		return release, nil
	case <-timeout:
		if c.abandon(cl, w) {
			c.stalls.Add(1)
			c.shed[cl].Add(1)
			c.mu.Lock()
			c.observeLocked(true)
			c.mu.Unlock()
			return nil, fmt.Errorf("admission: %s queue stalled for %v: %w", cl, c.queueTimeout, ErrShed)
		}
		// The grant raced the timer; the slot is ours.
		<-w.ready
		c.admitted[cl].Add(1)
		return release, nil
	case <-ctx.Done():
		if c.abandon(cl, w) {
			return nil, ctx.Err()
		}
		<-w.ready
		release() // granted, but the caller is gone
		return nil, ctx.Err()
	}
}

// abandon removes w from its queue; it reports false when w was already
// granted (the ready channel is closed and the slot must be consumed or
// released by the caller).
func (c *Controller) abandon(cl Class, w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.granted {
		return false
	}
	q := c.queues[cl]
	for i, cand := range q {
		if cand == w {
			c.queues[cl] = append(q[:i], q[i+1:]...)
			c.queuedWeight -= w.weight
			return true
		}
	}
	return false
}

// release returns weight to the pool and grants as many queued waiters
// as now fit, highest priority class first, FIFO within a class.
func (c *Controller) release(weight int) {
	c.mu.Lock()
	c.inuse -= weight
	for cl := Class(0); cl < numClasses; cl++ {
		q := c.queues[cl]
		for len(q) > 0 && c.inuse+q[0].weight <= c.capacity {
			w := q[0]
			q = q[1:]
			c.inuse += w.weight
			c.queuedWeight -= w.weight
			w.granted = true
			close(w.ready)
		}
		c.queues[cl] = q
	}
	c.observeLocked(false)
	c.mu.Unlock()
}

// waitersAheadLocked reports whether any waiter of equal or higher
// priority is queued — a newcomer must not overtake it even when
// capacity is momentarily free (FIFO within class, strict priority
// across classes). Caller holds mu.
func (c *Controller) waitersAheadLocked(cl Class) bool {
	for prio := Class(0); prio <= cl; prio++ {
		if len(c.queues[prio]) > 0 {
			return true
		}
	}
	return false
}

// observeLocked feeds the ladder one pressure sample. Pressure is the
// total demanded weight (admitted + queued) over capacity: 1.0 means
// full, above it work is waiting. Caller holds mu.
func (c *Controller) observeLocked(stalled bool) {
	c.ladder.Observe(float64(c.inuse+c.queuedWeight)/float64(c.capacity), stalled)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
