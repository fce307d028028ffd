package remote

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"dwcomplement/internal/obs"
)

// Config tunes a Link's fault handling. The zero value gets sensible
// production defaults; soak tests shrink every duration.
type Config struct {
	// AttemptTimeout is the per-attempt deadline (default 2s). A
	// long-poll's wait is added on top.
	AttemptTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried with
	// backoff before the fetch gives up (default 3; negative for none).
	// Only idempotent GETs are ever issued, so retrying is always safe —
	// duplicated deliveries are deduped downstream by sequence number.
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries (defaults 10ms and 1s); each delay is jittered by a
	// seeded ±50%.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the jitter schedule deterministic.
	Seed int64
	// BreakerThreshold consecutive failures open the circuit (default
	// 5); BreakerCooldown later a single probe is admitted (default
	// 500ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// PollWait is the long-poll wait the poll loop requests (default
	// 2s); PollInterval is the idle pause between unproductive rounds
	// (default 10ms).
	PollWait     time.Duration
	PollInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.PollWait <= 0 {
		c.PollWait = 2 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	return c
}

// Health is a point-in-time view of one pull link's client-side state,
// surfaced by dwserve's /readyz (sources) and /replica/status (leader).
type Health struct {
	Source              string    `json:"source"`
	State               string    `json:"state"` // healthy | degraded | quarantined | the link's sticky state
	Breaker             string    `json:"breaker"`
	ConsecutiveFailures int       `json:"consecutiveFailures"`
	LastSuccess         time.Time `json:"lastSuccess"`
	LastError           string    `json:"lastError,omitempty"`
	StalenessSec        float64   `json:"stalenessSec"`
	Cursor              uint64    `json:"cursor"`
}

// Link is the client half of a pull link — a source's report log or a
// leader's replication log, polled over HTTP — and its one fault
// policy: a per-attempt deadline, retries with seeded jittered
// exponential backoff, a circuit breaker, and the success/failure
// bookkeeping behind Staleness and Health.
//
// Verdicts are answers that arrive over a working transport and that no
// retry can change (a trimmed position, a fenced epoch): they fail the
// fetch at once, count as breaker successes, and keep the link failed
// until the next success. While the last error is the first verdict,
// Health reports the link's sticky state instead of degraded.
type Link struct {
	name        string
	cfg         Config
	cursor      func() uint64
	breaker     *Breaker
	started     time.Time
	stickyState string
	verdicts    []error

	rngMu sync.Mutex
	rng   *rand.Rand

	mu          sync.Mutex
	lastSuccess time.Time
	lastErr     error
	consecFails int
	mRetries    *obs.Counter
}

// NewLink builds the link to the far end called name, under cfg (zero
// fields take their defaults). cursor reports the client's position for
// Health. verdicts are the answers no retry changes; the first of them
// pins Health to stickyState.
func NewLink(name string, cfg Config, cursor func() uint64, stickyState string, verdicts ...error) *Link {
	cfg = cfg.withDefaults()
	return &Link{
		name:        name,
		cfg:         cfg,
		cursor:      cursor,
		breaker:     NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		started:     time.Now(),
		stickyState: stickyState,
		verdicts:    verdicts,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Breaker exposes the link's circuit breaker.
func (l *Link) Breaker() *Breaker { return l.breaker }

// Quarantined reports whether the breaker has the link quarantined
// (open or probing half-open).
func (l *Link) Quarantined() bool { return l.breaker.State() != BreakerClosed }

// Do runs attempt under the breaker with a deadline of AttemptTimeout +
// wait, retrying transport failures with backoff up to MaxRetries times.
// It returns how many attempts ran. An open breaker fails fast with
// ErrQuarantined; a deliberate cancellation of ctx (shutdown) is no
// fault of the far end and charges nothing.
func (l *Link) Do(ctx context.Context, wait time.Duration, attempt func(context.Context) error) (int, error) {
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if !l.breaker.Allow() {
			l.note(ErrQuarantined)
			return n, ErrQuarantined
		}
		actx, cancel := context.WithTimeout(ctx, l.cfg.AttemptTimeout+wait)
		err := attempt(actx)
		cancel()
		switch {
		case err == nil:
			l.breaker.Success()
			l.note(nil)
			return n, nil
		case ctx.Err() != nil:
			l.breaker.Abandon()
			return n, err
		case l.isVerdict(err):
			l.breaker.Success()
			l.note(err)
			return n, err
		}
		l.breaker.Failure()
		l.note(err)
		if n > l.cfg.MaxRetries {
			return n, err
		}
		inc(l.mRetries)
		l.sleep(ctx, l.backoff(n-1))
	}
}

func (l *Link) isVerdict(err error) bool {
	for _, v := range l.verdicts {
		if errors.Is(err, v) {
			return true
		}
	}
	return false
}

// note records one contact's outcome: nil is a success.
func (l *Link) note(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastErr = err
	if err == nil {
		l.lastSuccess = time.Now()
		l.consecFails = 0
	} else {
		l.consecFails++
	}
}

// backoff returns the jittered exponential delay before retry #attempt.
func (l *Link) backoff(attempt int) time.Duration {
	d := l.cfg.BackoffBase << uint(attempt)
	if d > l.cfg.BackoffMax || d <= 0 {
		d = l.cfg.BackoffMax
	}
	l.rngMu.Lock()
	jitter := 0.5 + l.rng.Float64() // ±50%
	l.rngMu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// Pause waits before the next poll round, or until ctx is done: the
// poll interval while the link is healthy, and (a fraction of) the
// breaker cooldown while it is quarantined or stuck on its sticky
// verdict, so a link no retry can help does not spin.
func (l *Link) Pause(ctx context.Context) {
	d := l.cfg.PollInterval
	if l.stuck() || l.Quarantined() {
		d = max(l.cfg.BreakerCooldown/2, d)
	}
	l.sleep(ctx, d)
}

// stuck reports whether the last error is the sticky verdict.
func (l *Link) stuck() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.verdicts) > 0 && errors.Is(l.lastErr, l.verdicts[0])
}

func (l *Link) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Staleness is how long the far end has been out of reach: zero while
// the last contact succeeded, else the age of the last success (or of
// the link itself if it never succeeded).
func (l *Link) Staleness() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lastErr == nil {
		return 0
	}
	since := l.lastSuccess
	if since.IsZero() {
		since = l.started
	}
	return time.Since(since)
}

// Health returns the link's degradation view: healthy (last contact
// succeeded), degraded (recent failures, circuit still closed),
// quarantined (circuit open; requests fail fast until a probe passes),
// or the sticky state.
func (l *Link) Health() Health {
	stuck := l.stuck()
	l.mu.Lock()
	lastErr := l.lastErr
	h := Health{
		Source:              l.name,
		Breaker:             l.breaker.State().String(),
		ConsecutiveFailures: l.consecFails,
		LastSuccess:         l.lastSuccess,
	}
	l.mu.Unlock()
	h.Cursor = l.cursor()
	switch {
	case stuck:
		h.State = l.stickyState
	case l.Quarantined():
		h.State = "quarantined"
	case lastErr != nil:
		h.State = "degraded"
	default:
		h.State = "healthy"
	}
	if lastErr != nil {
		h.LastError = lastErr.Error()
	}
	h.StalenessSec = l.Staleness().Seconds()
	return h
}
