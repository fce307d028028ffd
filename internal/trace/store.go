package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dwcomplement/internal/lockrank"
)

// SpanRecord is one finished span as exported to the ring buffer. It is
// a plain value type so the store's memory stays bounded by capacity ×
// record size (plus attribute strings).
type SpanRecord struct {
	TraceID TraceID   `json:"-"`
	SpanID  SpanID    `json:"-"`
	Parent  SpanID    `json:"-"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Attrs   []Attr    `json:"attrs,omitempty"`
}

// Duration is the span's wall time.
func (r SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// TraceSummary is one trace's row in the GET /traces listing.
type TraceSummary struct {
	TraceID string    `json:"traceId"`
	Root    string    `json:"root"` // root (or earliest) span name
	Spans   int       `json:"spans"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// Store is a fixed-capacity ring buffer of finished spans with a
// by-trace index. Once full, the oldest span (by insertion order) is
// overwritten and unindexed, so memory is bounded no matter how long
// the process runs. Safe for concurrent use.
type Store struct {
	mu      lockrank.Mutex[lockrank.TraceStore]
	slots   []SpanRecord
	used    []bool
	next    int
	byTrace map[TraceID][]int // slot indexes, insertion order
}

// NewStore builds a ring buffer holding at most capacity spans.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Store{
		slots:   make([]SpanRecord, capacity),
		used:    make([]bool, capacity),
		byTrace: make(map[TraceID][]int),
	}
}

// add records one finished span, evicting the oldest if full. Nil-safe
// so a detached tracer can't panic an End call.
func (s *Store) add(rec SpanRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next
	s.next = (s.next + 1) % len(s.slots)
	if s.used[i] {
		s.unindex(s.slots[i].TraceID, i)
	}
	s.slots[i] = rec
	s.used[i] = true
	s.byTrace[rec.TraceID] = append(s.byTrace[rec.TraceID], i)
}

// unindex removes slot i from its trace's index entry.
func (s *Store) unindex(tid TraceID, i int) {
	idx := s.byTrace[tid]
	for j, slot := range idx {
		if slot == i {
			idx = append(idx[:j], idx[j+1:]...)
			break
		}
	}
	if len(idx) == 0 {
		delete(s.byTrace, tid)
	} else {
		s.byTrace[tid] = idx
	}
}

// Len returns the number of spans currently retained.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, u := range s.used {
		if u {
			n++
		}
	}
	return n
}

// TraceCount returns the number of distinct traces retained.
func (s *Store) TraceCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byTrace)
}

// Trace returns the retained spans of one trace sorted by start time,
// and whether the trace is known.
func (s *Store) Trace(id TraceID) ([]SpanRecord, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	idx, ok := s.byTrace[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	out := make([]SpanRecord, 0, len(idx))
	for _, i := range idx {
		out = append(out, s.slots[i])
	}
	s.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out, true
}

// Traces summarizes every retained trace, most recent first, truncated
// to limit entries (limit <= 0 means no cap beyond the buffer itself).
func (s *Store) Traces(limit int) []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]TraceSummary, 0, len(s.byTrace))
	for tid, idx := range s.byTrace {
		sum := TraceSummary{TraceID: tid.String(), Spans: len(idx)}
		var rootName, firstName string
		var firstStart time.Time
		for _, i := range idx {
			rec := s.slots[i]
			if sum.Start.IsZero() || rec.Start.Before(sum.Start) {
				sum.Start = rec.Start
			}
			if rec.End.After(sum.End) {
				sum.End = rec.End
			}
			if rec.Parent.IsZero() && rootName == "" {
				rootName = rec.Name
			}
			if firstStart.IsZero() || rec.Start.Before(firstStart) {
				firstStart, firstName = rec.Start, rec.Name
			}
		}
		sum.Root = rootName
		if sum.Root == "" {
			sum.Root = firstName // root span evicted or still open
		}
		out = append(out, sum)
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Start.Equal(out[b].Start) {
			return out[a].Start.After(out[b].Start)
		}
		return out[a].TraceID < out[b].TraceID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Render pretty-prints one trace's spans as an indented tree with
// relative offsets and durations — shared by the dwctl REPL's
// `trace <id>` command and error messages in tests. Spans whose parent
// was evicted from the ring render at the top level.
func Render(spans []SpanRecord) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	byParent := make(map[SpanID][]SpanRecord)
	have := make(map[SpanID]bool, len(spans))
	var t0 time.Time
	for _, sp := range spans {
		have[sp.SpanID] = true
		if t0.IsZero() || sp.Start.Before(t0) {
			t0 = sp.Start
		}
	}
	var roots []SpanRecord
	for _, sp := range spans {
		if sp.Parent.IsZero() || !have[sp.Parent] {
			roots = append(roots, sp)
		} else {
			byParent[sp.Parent] = append(byParent[sp.Parent], sp)
		}
	}
	var b strings.Builder
	var walk func(sp SpanRecord, depth int)
	walk = func(sp SpanRecord, depth int) {
		fmt.Fprintf(&b, "%s%-24s +%-9s %9s",
			strings.Repeat("  ", depth), sp.Name,
			sp.Start.Sub(t0).Round(time.Microsecond),
			sp.Duration().Round(time.Microsecond))
		if len(sp.Attrs) > 0 {
			parts := make([]string, len(sp.Attrs))
			for i, a := range sp.Attrs {
				parts[i] = a.Key + "=" + a.Value
			}
			fmt.Fprintf(&b, "  {%s}", strings.Join(parts, " "))
		}
		b.WriteByte('\n')
		kids := byParent[sp.SpanID]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
