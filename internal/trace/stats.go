package trace

import (
	"sort"
	"sync"
	"time"
)

// DefaultEWMAAlpha is the smoothing factor used by dwserve: each new
// observation carries 20% of the estimate, so the EWMA tracks roughly
// the last ~10 refreshes.
const DefaultEWMAAlpha = 0.2

// ewma folds one observation into a running exponentially weighted
// moving average. The first observation seeds the estimate directly.
func ewma(cur, obs, alpha float64, samples uint64) float64 {
	if samples == 0 {
		return obs
	}
	return alpha*obs + (1-alpha)*cur
}

// TargetStats holds the per-maintenance-target EWMAs that the parked
// cost-based maintenance planner (ROADMAP "Parked") would consume: how big
// deltas run, how big the target view is, how lookups split
// restricted-vs-full, and how long propagation takes. All EWMAs use the
// collector's alpha.
type TargetStats struct {
	Target  string `json:"target"`
	Samples uint64 `json:"samples"`
	// DeltaEWMA is tuples per refresh delta (inserts + deletes proposed).
	DeltaEWMA float64 `json:"deltaEwma"`
	// AppliedEWMA is tuples per refresh actually applied after
	// normalization and no-op elimination.
	AppliedEWMA float64 `json:"appliedEwma"`
	// ViewSizeEWMA is the target relation's cardinality after refresh.
	ViewSizeEWMA float64 `json:"viewSizeEwma"`
	// RestrictedEWMA / FullEWMA are per-refresh source-lookup counts by
	// mode, attributed refresh-wide (the lookup state is shared across
	// targets within one refresh).
	RestrictedEWMA float64 `json:"restrictedEwma"`
	FullEWMA       float64 `json:"fullEwma"`
	// RefreshNsEWMA is wall nanoseconds spent propagating this target.
	RefreshNsEWMA float64 `json:"refreshNsEwma"`
}

// PipelineStats holds refresh-wide EWMAs: the end-to-end refresh lag
// (report emitted at the source → delta visible in views) and the
// restricted/full lookup mix.
type PipelineStats struct {
	Samples        uint64  `json:"samples"`
	LagSamples     uint64  `json:"lagSamples"`
	LagNsEWMA      float64 `json:"lagNsEwma"`
	RestrictedEWMA float64 `json:"restrictedEwma"`
	FullEWMA       float64 `json:"fullEwma"`
	RefreshNsEWMA  float64 `json:"refreshNsEwma"`
}

// StatsSnapshot is the JSON shape served under /stats (key
// "maintenance"). Targets are sorted by name so output is stable.
type StatsSnapshot struct {
	Alpha    float64       `json:"alpha"`
	Pipeline PipelineStats `json:"pipeline"`
	Targets  []TargetStats `json:"targets"`
}

// MaintStats aggregates maintenance observations into planner-ready
// EWMAs. Safe for concurrent use. A nil *MaintStats ignores all
// observations.
type MaintStats struct {
	mu       sync.Mutex
	alpha    float64
	pipeline PipelineStats
	targets  map[string]*TargetStats
}

// NewMaintStats builds a collector with the given smoothing factor
// (DefaultEWMAAlpha when alpha is out of (0, 1]).
func NewMaintStats(alpha float64) *MaintStats {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return &MaintStats{alpha: alpha, targets: make(map[string]*TargetStats)}
}

// ObserveTarget folds one target's refresh outcome into its EWMAs.
// delta counts proposed tuples, applied counts installed tuples,
// viewSize is the target's post-refresh cardinality, restricted/full
// are the refresh-wide lookup counts, and wall is propagation time.
func (m *MaintStats) ObserveTarget(target string, delta, applied, viewSize int, restricted, full int64, wall time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	ts := m.targets[target]
	if ts == nil {
		ts = &TargetStats{Target: target}
		m.targets[target] = ts
	}
	ts.DeltaEWMA = ewma(ts.DeltaEWMA, float64(delta), m.alpha, ts.Samples)
	ts.AppliedEWMA = ewma(ts.AppliedEWMA, float64(applied), m.alpha, ts.Samples)
	ts.ViewSizeEWMA = ewma(ts.ViewSizeEWMA, float64(viewSize), m.alpha, ts.Samples)
	ts.RestrictedEWMA = ewma(ts.RestrictedEWMA, float64(restricted), m.alpha, ts.Samples)
	ts.FullEWMA = ewma(ts.FullEWMA, float64(full), m.alpha, ts.Samples)
	ts.RefreshNsEWMA = ewma(ts.RefreshNsEWMA, float64(wall.Nanoseconds()), m.alpha, ts.Samples)
	ts.Samples++
	m.mu.Unlock()
}

// ObserveRefresh folds one whole refresh into the pipeline EWMAs. Pass
// lag < 0 when the report carried no emission timestamp.
func (m *MaintStats) ObserveRefresh(restricted, full int64, wall, lag time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	p := &m.pipeline
	p.RestrictedEWMA = ewma(p.RestrictedEWMA, float64(restricted), m.alpha, p.Samples)
	p.FullEWMA = ewma(p.FullEWMA, float64(full), m.alpha, p.Samples)
	p.RefreshNsEWMA = ewma(p.RefreshNsEWMA, float64(wall.Nanoseconds()), m.alpha, p.Samples)
	p.Samples++
	if lag >= 0 {
		p.LagNsEWMA = ewma(p.LagNsEWMA, float64(lag.Nanoseconds()), m.alpha, p.LagSamples)
		p.LagSamples++
	}
	m.mu.Unlock()
}

// Snapshot returns a copy of the current estimates, targets sorted by
// name.
func (m *MaintStats) Snapshot() StatsSnapshot {
	if m == nil {
		return StatsSnapshot{}
	}
	m.mu.Lock()
	snap := StatsSnapshot{Alpha: m.alpha, Pipeline: m.pipeline}
	for _, ts := range m.targets {
		snap.Targets = append(snap.Targets, *ts)
	}
	m.mu.Unlock()
	sort.Slice(snap.Targets, func(i, j int) bool { return snap.Targets[i].Target < snap.Targets[j].Target })
	return snap
}
