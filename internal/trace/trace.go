// Package trace is the dependency-free distributed tracing layer of the
// warehouse — the span-level twin of package obs. It records sampled,
// context-propagated spans into a bounded in-process ring buffer and
// carries trace context across process boundaries in the W3C Trace
// Context `traceparent` format, so one trace shows a report's complete
// journey through Figure 1: source apply → reporting channel → remote
// client → integrator → journal → per-target refresh.
//
// Everything is plain standard library, and every entry point is
// nil-safe: a nil *Tracer starts no spans and a nil *Span ignores every
// method, so instrumented call sites pay (almost) nothing when tracing
// is disabled or the trace was not sampled.
package trace

import (
	"context"
	"encoding/hex"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end trace (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// SpanContext is the propagated identity of a span: enough to continue
// its trace in another goroutine or process.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context carries usable IDs.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context in the W3C Trace Context format:
// "00-<trace-id>-<parent-id>-<flags>" with flags 01 when sampled.
// Invalid contexts render as "".
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. Only version
// 00 is understood; anything malformed returns ok=false.
func ParseTraceparent(s string) (SpanContext, bool) {
	// 2 + 1 + 32 + 1 + 16 + 1 + 2
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	var sc SpanContext
	tid, ok := ParseTraceID(s[3:35])
	if !ok {
		return SpanContext{}, false
	}
	sc.TraceID = tid
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil || sc.SpanID.IsZero() {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, true
}

// Attr is one key/value annotation on a span. Values are strings so the
// store stays allocation-predictable; use SetAttrInt for numbers.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one recorded operation. Spans are created by Tracer.Start (or
// the package-level StartSpan) and MUST be finished with End: the
// tracer counts the spans not yet ended, and traced tests fail when
// Tracer.Open is not zero once the traced work has stopped. All methods
// are nil-safe no-ops so unsampled call sites stay branch-cheap.
type Span struct {
	tracer *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Recording reports whether the span records into a trace store (false
// for nil spans).
func (s *Span) Recording() bool { return s != nil }

// Context returns the span's propagation context; the zero SpanContext
// for nil spans.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Name returns the span's operation name ("" for nil spans).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr annotates the span. No-op on nil or ended spans.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, itoa(value))
}

// End finishes the span and exports it to the tracer's ring buffer.
// Calling End more than once exports only the first call.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tracer.open.Add(-1)
	s.tracer.store.add(SpanRecord{
		TraceID: s.sc.TraceID,
		SpanID:  s.sc.SpanID,
		Parent:  s.parent,
		Name:    s.name,
		Start:   s.start,
		End:     end,
		Attrs:   attrs,
	})
}

// itoa is strconv.FormatInt without the import cycle bait.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var buf [20]byte
	i := len(buf)
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Config tunes a Tracer.
type Config struct {
	// Rate is the head-based sampling probability for fresh root traces
	// in [0, 1]. Traces continued from a sampled remote parent are
	// always recorded regardless of Rate; unsampled remote parents are
	// never recorded.
	Rate float64
	// Seed makes the sampling decision sequence (and span IDs)
	// deterministic — tests fix it, production uses the wall clock.
	Seed int64
	// Capacity bounds the span ring buffer (default 4096 spans). Old
	// spans are overwritten in insertion order once the buffer is full.
	Capacity int
}

// Tracer makes sampling decisions, mints span IDs, and owns the span
// ring buffer. Safe for concurrent use. The zero value is not usable;
// call New. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	rate  float64
	store *Store
	// open counts the spans started on this tracer and not yet ended.
	open atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a tracer with the given sampling rate, seed, and buffer
// capacity.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.Rate < 0 {
		cfg.Rate = 0
	}
	if cfg.Rate > 1 {
		cfg.Rate = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	return &Tracer{
		rate:  cfg.Rate,
		store: NewStore(cfg.Capacity),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Store returns the tracer's span ring buffer (nil for a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// Open returns the number of spans this tracer owns that were started
// and not yet ended: zero once the traced work has stopped, unless a
// span was never ended. Tests read it.
func (t *Tracer) Open() int64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
}

// ctxKey keys the context values owned by this package.
type ctxKey int

const (
	spanKey ctxKey = iota
	remoteKey
)

// ContextWithSpan returns ctx carrying sp as the current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey, sp)
}

// FromContext returns the current span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// ContextWithRemote returns ctx carrying a remote parent parsed from a
// traceparent header value. Start continues that trace (honoring its
// sampled flag) when no in-process parent span is present. A malformed
// header leaves ctx unchanged.
func ContextWithRemote(ctx context.Context, traceparent string) context.Context {
	sc, ok := ParseTraceparent(traceparent)
	if !ok {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// remoteFromContext returns the remote parent carried by ctx, if any.
func remoteFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(remoteKey).(SpanContext)
	return sc, ok
}

// Start begins a span named name. The parent is, in order of
// preference: the span already in ctx (same trace, recorded iff the
// parent records), a remote SpanContext installed by ContextWithRemote
// (its sampled flag decides), or a fresh root whose recording is the
// tracer's sampling decision. Unsampled starts return (ctx, nil) — the
// nil span's methods are all no-ops.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	if parent := FromContext(ctx); parent != nil {
		sp := t.newSpan(name, parent.sc.TraceID, parent.sc.SpanID, parent.tracer)
		return ContextWithSpan(ctx, sp), sp
	}
	if rp, ok := remoteFromContext(ctx); ok && rp.Valid() {
		if t == nil || !rp.Sampled {
			return ctx, nil
		}
		sp := t.newSpan(name, rp.TraceID, rp.SpanID, t)
		return ContextWithSpan(ctx, sp), sp
	}
	if t == nil || !t.sampleRoot() {
		return ctx, nil
	}
	sp := t.newSpan(name, t.newTraceID(), SpanID{}, t)
	return ContextWithSpan(ctx, sp), sp
}

// StartRemote is Start with an explicit remote parent: it continues the
// trace identified by the traceparent value when the value is valid and
// sampled, and otherwise behaves exactly like Start.
func (t *Tracer) StartRemote(ctx context.Context, traceparent, name string) (context.Context, *Span) {
	if traceparent != "" {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx = ContextWithRemote(ctx, traceparent)
	}
	return t.Start(ctx, name)
}

// StartSpan begins a child of the span carried by ctx, using that
// span's own tracer — the entry point for library code (maintain,
// journal) that has no tracer handle. Without a recording parent it
// returns (ctx, nil), so untraced operations pay one context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tracer.Start(ctx, name)
}

// newSpan mints a recorded span in the given trace. The owning tracer
// is the parent's when continuing (so exports land in one buffer).
func (t *Tracer) newSpan(name string, tid TraceID, parent SpanID, owner *Tracer) *Span {
	if owner == nil {
		owner = t
	}
	if owner == nil {
		return nil
	}
	owner.open.Add(1)
	return &Span{
		tracer: owner,
		name:   name,
		sc:     SpanContext{TraceID: tid, SpanID: owner.newSpanID(), Sampled: true},
		parent: parent,
		start:  time.Now(),
	}
}

// sampleRoot draws one head-based sampling decision.
func (t *Tracer) sampleRoot() bool {
	if t.rate <= 0 {
		return false
	}
	if t.rate >= 1 {
		return true
	}
	t.mu.Lock()
	v := t.rng.Float64()
	t.mu.Unlock()
	return v < t.rate
}

// newTraceID mints a non-zero trace ID.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	t.mu.Lock()
	for id.IsZero() {
		t.rng.Read(id[:])
	}
	t.mu.Unlock()
	return id
}

// newSpanID mints a non-zero span ID.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	t.mu.Lock()
	for id.IsZero() {
		t.rng.Read(id[:])
	}
	t.mu.Unlock()
	return id
}
