package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/source"
	"dwcomplement/internal/trace"
)

// ErrQuarantined reports that the client's circuit breaker is open: the
// source is quarantined and requests fail fast without touching the
// network until the cooldown admits a probe.
var ErrQuarantined = errors.New("remote: source quarantined (circuit open)")

// ErrTrimmed reports a 410 Gone from the source: the requested reports
// precede its retained log, so retrying cannot bring them back — the
// warehouse must be re-seeded from a snapshot. The client surfaces this
// as the "wedged" health state instead of looping on gap rewinds.
var ErrTrimmed = errors.New("remote: requested reports were trimmed from the source's retained log")

// Client consumes one remote source's reporting channel: it long-polls
// GET /reports, delivers each report through the registered callback,
// and re-requests ranges on demand via GET /resend. It implements
// source.Reporter, so an integrator wired to a Client cannot tell it is
// talking across a network — except through the fault-handling state
// of its Link (breaker, health, staleness). A 410 Gone is the Link's
// sticky verdict: the client reports itself wedged (the source trimmed
// history below the cursor; the warehouse must be re-seeded from a
// snapshot).
type Client struct {
	*Link
	name  string
	base  string
	db    *catalog.Database
	httpc *http.Client

	mu           sync.Mutex
	notify       func(source.Notification)
	cursor       uint64 // highest Seq fetched by the poll loop
	lastAttempts int    // attempts the last successful fetch needed
	tracer       *trace.Tracer
	runCtx       context.Context
	cancel       context.CancelFunc
	wg           sync.WaitGroup

	mPolls *obs.Counter
}

var _ source.Reporter = (*Client)(nil)

// NewClient builds a client for the source served at baseURL (e.g.
// "http://host:9101"), decoding reports against db.
func NewClient(name, baseURL string, db *catalog.Database, cfg Config) *Client {
	c := &Client{name: name, base: baseURL, db: db, httpc: &http.Client{}}
	c.Link = NewLink(name, cfg, c.Cursor, "wedged", ErrTrimmed)
	return c
}

// SetTransport swaps the underlying HTTP transport (tests inject a
// chaos.FaultyTransport here).
func (c *Client) SetTransport(rt http.RoundTripper) { c.httpc.Transport = rt }

// Name returns the remote source's name.
func (c *Client) Name() string { return c.name }

// SetTracer attaches a tracer: reports fetched with a sampled
// traceparent are delivered under a "remote.attempt" span that records
// the fetch effort (attempts) and re-parents the report's lineage so
// downstream spans nest under the client-side hop. Call before Start.
func (c *Client) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// OnUpdate registers the delivery callback, exactly like
// Source.OnUpdate. Register before Start.
func (c *Client) OnUpdate(fn func(source.Notification)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notify = fn
}

// Cursor returns the highest sequence number fetched so far.
func (c *Client) Cursor() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cursor
}

// Rewind moves the poll cursor back to `to`, so the next poll re-fetches
// everything after it. The consumer calls this when it had to discard a
// delivered report (e.g. a failed refresh) and needs redelivery.
func (c *Client) Rewind(to uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if to < c.cursor {
		c.cursor = to
	}
}

// Start launches the poll loop; it stops when ctx is done or Close is
// called.
func (c *Client) Start(ctx context.Context) {
	c.mu.Lock()
	if c.cancel != nil {
		c.mu.Unlock()
		return // already running
	}
	rctx, cancel := context.WithCancel(ctx)
	c.runCtx, c.cancel = rctx, cancel
	c.wg.Add(1)
	c.mu.Unlock()
	go c.loop(rctx)
}

// Close stops the poll loop and waits for it to exit.
func (c *Client) Close() {
	c.mu.Lock()
	cancel := c.cancel
	c.cancel = nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	c.wg.Wait()
}

// loop is the report pump: long-poll from the cursor, deliver, repeat.
// Failed and unproductive rounds pause as the Link's policy says.
func (c *Client) loop(ctx context.Context) {
	defer c.wg.Done()
	for ctx.Err() == nil {
		inc(c.mPolls)
		batch, err := c.fetch(ctx, "/reports", c.Cursor()+1, c.cfg.PollWait)
		if err != nil || !c.deliver(batch) {
			c.Pause(ctx)
		}
	}
}

// Resend re-requests reports with Seq ≥ from through the resync
// endpoint and delivers them — the Reporter face of gap recovery.
func (c *Client) Resend(from uint64) error {
	batch, err := c.fetch(c.currentCtx(), "/resend", from, 0)
	if err != nil {
		return fmt.Errorf("remote: resend %s from %d: %w", c.name, from, err)
	}
	c.deliver(batch)
	return nil
}

// currentCtx is the running poll context, or Background before Start.
func (c *Client) currentCtx() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runCtx != nil && c.runCtx.Err() == nil {
		return c.runCtx
	}
	return context.Background()
}

// deliver pushes a batch through the callback in order and reports
// whether the cursor advanced. The cursor moves to each report's Seq
// BEFORE its callback runs, so a Rewind issued inside the callback (the
// consumer discarding a report after a failed refresh or sequence gap)
// survives and the next poll re-fetches the unapplied report; delivery
// of the rest of the batch stops at a rewind, since every later report
// would only be re-fetched anyway.
func (c *Client) deliver(batch []source.Notification) bool {
	if len(batch) == 0 {
		return false
	}
	c.mu.Lock()
	fn := c.notify
	before := c.cursor
	tracer := c.tracer
	attempts := c.lastAttempts
	c.mu.Unlock()
	for _, n := range batch {
		c.mu.Lock()
		if n.Seq > c.cursor {
			c.cursor = n.Seq
		}
		c.mu.Unlock()
		if fn != nil {
			c.deliverOne(tracer, n, attempts, fn)
		}
		c.mu.Lock()
		rewound := c.cursor < n.Seq
		c.mu.Unlock()
		if rewound {
			break
		}
	}
	return c.Cursor() > before
}

// deliverOne runs the callback for one report, under a "remote.attempt"
// span when the report carries a sampled traceparent. The span is
// re-parented into the report before delivery, so everything the
// consumer does (integration, journaling, refresh) nests under this
// client-side hop in the trace.
func (c *Client) deliverOne(tracer *trace.Tracer, n source.Notification, attempts int, fn func(source.Notification)) {
	_, sp := tracer.StartRemote(context.Background(), n.Traceparent, "remote.attempt")
	defer sp.End()
	sp.SetAttr("source", c.name)
	sp.SetAttrInt("seq", int64(n.Seq))
	sp.SetAttrInt("fetchAttempts", int64(attempts))
	if sp.Recording() {
		n.Traceparent = sp.Context().Traceparent()
	}
	fn(n)
}

// fetch GETs path?from=N under the Link's fault policy.
func (c *Client) fetch(ctx context.Context, path string, from uint64, wait time.Duration) ([]source.Notification, error) {
	var batch []source.Notification
	attempts, err := c.Do(ctx, wait, func(actx context.Context) (err error) {
		batch, err = c.get(actx, path, from, wait)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.lastAttempts = attempts
	c.mu.Unlock()
	return batch, nil
}

// get performs one attempt against path.
func (c *Client) get(ctx context.Context, path string, from uint64, wait time.Duration) ([]source.Notification, error) {
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	if wait > 0 {
		q.Set("wait", strconv.FormatInt(wait.Milliseconds(), 10))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path+"?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("remote: %s%s: %s: %w", c.base, path, strings.TrimSpace(string(body)), ErrTrimmed)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("remote: %s%s: status %d: %s", c.base, path, resp.StatusCode, string(body))
	}
	var rb ReportBatch
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		return nil, fmt.Errorf("remote: %s%s: decoding response: %w", c.base, path, err)
	}
	batch := make([]source.Notification, 0, len(rb.Reports))
	for _, wn := range rb.Reports {
		n, err := FromWire(wn, c.db)
		if err != nil {
			return nil, err
		}
		batch = append(batch, n)
	}
	return batch, nil
}

// SetMetrics registers the client's fault-handling instruments with an
// obs registry, labeled by source: retries, poll rounds, a
// breaker-state gauge (0 closed, 1 half-open, 2 open), and a per-source
// staleness gauge.
func (c *Client) SetMetrics(reg *obs.Registry) {
	labels := obs.Labels{"source": c.name}
	c.Link.mu.Lock()
	c.mRetries = reg.Counter("dw_remote_retries_total",
		"Remote report fetch attempts retried after a failure.", labels)
	c.Link.mu.Unlock()
	c.mu.Lock()
	c.mPolls = reg.Counter("dw_remote_poll_rounds_total",
		"Report poll rounds issued against the remote source.", labels)
	c.mu.Unlock()
	reg.GaugeFunc("dw_remote_breaker_state",
		"Circuit breaker position per source: 0 closed, 1 half-open, 2 open.", labels,
		func() float64 { return float64(c.breaker.State()) })
	reg.GaugeFunc("dw_remote_source_staleness_seconds",
		"Seconds since the source's report stream was last fetched successfully; 0 while healthy.", labels,
		func() float64 { return c.Staleness().Seconds() })
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}
