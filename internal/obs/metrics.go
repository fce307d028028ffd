// Package obs is the dependency-free observability layer of the
// warehouse: a metrics registry (counters, gauges, histograms) with
// Prometheus text exposition, structured logging on log/slog with
// per-request IDs, and HTTP instrumentation helpers. Everything is plain
// standard library so the engine stays free of third-party dependencies
// while still speaking the formats production scrapers and log pipelines
// expect.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwcomplement/internal/lockrank"
)

// Labels attaches dimension values to a metric series. The same metric
// name with different label values yields distinct series under one
// HELP/TYPE family, exactly as Prometheus models it.
type Labels map[string]string

// DefLatencyBuckets are the fixed histogram bucket upper bounds (in
// seconds) used for all latency histograms. They reach from 50µs — the
// in-memory engine answers small queries in well under a millisecond —
// up to 10s for pathological scans.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the series to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// ObservedGauge is a float-valued gauge whose samples can carry an
// exemplar trace ID, the way histogram buckets do: the scrape line
// links the CURRENT value to the trace that set it. Built for
// replication lag — when a follower's catch-up lag spikes, the gauge's
// exemplar leads straight to the apply trace that was running when the
// lag was measured. Safe for concurrent use.
type ObservedGauge struct {
	mu lockrank.Mutex[lockrank.ObservedGauge]
	v  float64
	ex Exemplar
}

// Set replaces the value without touching the exemplar.
func (g *ObservedGauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// SetWithExemplar replaces the value and, when traceID is non-empty,
// the exemplar linking it to its trace.
func (g *ObservedGauge) SetWithExemplar(v float64, traceID string) {
	g.mu.Lock()
	g.v = v
	if traceID != "" {
		g.ex = Exemplar{TraceID: traceID, Value: v}
	}
	g.mu.Unlock()
}

// Value returns the current value.
func (g *ObservedGauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Exemplar returns the most recent exemplar (zero value when none was
// ever recorded).
func (g *ObservedGauge) Exemplar() Exemplar {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ex
}

// Exemplar links one observed value to the trace that produced it, in
// the OpenMetrics sense: scrape output carries the last exemplar per
// bucket so a latency spike in a dashboard can be followed straight to
// its lineage trace under GET /traces/{id}.
type Exemplar struct {
	TraceID string
	Value   float64
}

// Histogram counts observations into fixed buckets and tracks their sum,
// exposed in Prometheus cumulative-bucket form. Safe for concurrent use.
type Histogram struct {
	mu        sync.Mutex
	upper     []float64  // sorted upper bounds; +Inf is implicit
	counts    []uint64   // per-bucket (non-cumulative) counts
	exemplars []Exemplar // lazily allocated, len(upper)+1 (+Inf last)
	sum       float64
	count     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveWithExemplar(v, "") }

// ObserveWithExemplar records one value and, when traceID is non-empty,
// remembers it as the owning bucket's most recent exemplar.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	bucket := len(h.upper) // implicit +Inf
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i]++
			bucket = i
			break
		}
	}
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]Exemplar, len(h.upper)+1)
		}
		h.exemplars[bucket] = Exemplar{TraceID: traceID, Value: v}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Snapshot returns the cumulative bucket counts (one per upper bound,
// +Inf excluded), the sum of observations, and the total count.
func (h *Histogram) Snapshot() (cumulative []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return cumulative, h.sum, h.count
}

// Exemplars returns a copy of the per-bucket exemplars (one slot per
// upper bound plus +Inf; zero-value slots mean none recorded), or nil
// when no exemplar was ever observed.
func (h *Histogram) Exemplars() []Exemplar {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.exemplars == nil {
		return nil
	}
	return append([]Exemplar(nil), h.exemplars...)
}

// metricKind discriminates the series types of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindObservedGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance of a family.
type series struct {
	labels  Labels
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	obsg    *ObservedGauge
	hist    *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	series  map[string]*series // keyed by canonical label signature
	order   []string           // registration order of signatures
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Lookups are idempotent: asking for the same name and
// labels returns the same instrument, so hot paths may re-resolve instead
// of caching. Mixing kinds (or histogram buckets) under one name panics —
// that is a programming error, not an operational condition.
type Registry struct {
	mu       lockrank.Mutex[lockrank.Registry]
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature canonicalizes labels for series lookup.
func signature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(escapeLabel(labels[k]))
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the series for (name, labels) with the given
// kind, running mk to build a fresh series.
func (r *Registry) lookup(name, help string, kind metricKind, labels Labels, buckets []float64, mk func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	sig := signature(labels)
	s, ok := f.series[sig]
	if !ok {
		s = mk()
		if len(labels) > 0 {
			s.labels = make(Labels, len(labels))
			for k, v := range labels {
				s.labels[k] = v
			}
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, kindCounter, labels, nil, func() *series {
		return &series{counter: &Counter{}}
	}).counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, kindGauge, labels, nil, func() *series {
		return &series{gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time
// (e.g. live warehouse sizes). Re-registering the same series replaces
// the function.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	s := r.lookup(name, help, kindGaugeFunc, labels, nil, func() *series {
		return &series{}
	})
	r.mu.Lock()
	s.gaugeFn = fn
	r.mu.Unlock()
}

// ObservedGauge returns the exemplar-carrying float gauge for (name,
// labels), creating it on first use. It renders as TYPE gauge with an
// OpenMetrics exemplar suffix when one was recorded.
func (r *Registry) ObservedGauge(name, help string, labels Labels) *ObservedGauge {
	return r.lookup(name, help, kindObservedGauge, labels, nil, func() *series {
		return &series{obsg: &ObservedGauge{}}
	}).obsg
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds (in ascending order; +Inf implicit) on
// first use. All series of one family share the first registration's
// buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, buckets, func() *series {
		f := r.families[name]
		ub := f.buckets
		return &series{hist: &Histogram{
			upper:  append([]float64(nil), ub...),
			counts: make([]uint64, len(ub)),
		}}
	}).hist
}

// formatFloat renders a sample or bucket bound the way Prometheus does.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders a label set (plus an optional extra pair, used for
// histogram le) as {k="v",...}; empty labels render as nothing.
func renderLabels(labels Labels, extraKey, extraVal string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, k+`="`+escapeLabel(labels[k])+`"`)
	}
	if extraKey != "" {
		parts = append(parts, extraKey+`="`+escapeLabel(extraVal)+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// renderExemplar renders the OpenMetrics exemplar suffix for bucket i
// (" # {trace_id=\"...\"} value"), or "" when none was recorded. The
// suffix makes histogram lines OpenMetrics-flavored; the rest of the
// exposition stays plain 0.0.4.
func renderExemplar(ex []Exemplar, i int) string {
	if i >= len(ex) || ex[i].TraceID == "" {
		return ""
	}
	return ` # {trace_id="` + escapeLabel(ex[i].TraceID) + `"} ` + formatFloat(ex[i].Value)
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type snap struct {
		f      *family
		series []*series
	}
	snaps := make([]snap, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		ss := make([]*series, 0, len(f.order))
		for _, sig := range f.order {
			ss = append(ss, f.series[sig])
		}
		snaps = append(snaps, snap{f, ss})
	}
	r.mu.Unlock()

	for _, sn := range snaps {
		f := sn.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range sn.series {
			ls := renderLabels(s.labels, "", "")
			switch f.kind {
			case kindCounter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.counter.Value()); err != nil {
					return err
				}
			case kindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.gauge.Value()); err != nil {
					return err
				}
			case kindGaugeFunc:
				v := 0.0
				if s.gaugeFn != nil {
					v = s.gaugeFn()
				}
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(v)); err != nil {
					return err
				}
			case kindObservedGauge:
				suffix := renderExemplar([]Exemplar{s.obsg.Exemplar()}, 0)
				if _, err := fmt.Fprintf(w, "%s%s %s%s\n", f.name, ls, formatFloat(s.obsg.Value()), suffix); err != nil {
					return err
				}
			case kindHistogram:
				cum, sum, count := s.hist.Snapshot()
				ex := s.hist.Exemplars()
				for i, ub := range f.buckets {
					line := renderLabels(s.labels, "le", formatFloat(ub))
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, line, cum[i], renderExemplar(ex, i)); err != nil {
						return err
					}
				}
				inf := renderLabels(s.labels, "le", "+Inf")
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, inf, count, renderExemplar(ex, len(f.buckets))); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ls, formatFloat(sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
