package admission

import (
	"sync/atomic"
	"time"

	"dwcomplement/internal/lockrank"
)

// Level is a rung of the degradation ladder. Higher levels shed more:
// the server drops the cheapest work first and touches queries last.
type Level int32

const (
	// LevelNormal serves everything.
	LevelNormal Level = iota
	// LevelNoTrace sheds diagnostics: trace/stats requests are refused
	// and explain output is stripped from query answers.
	LevelNoTrace
	// LevelStale additionally serves stale-tolerant queries from the
	// answer cache (marked with X-DW-Staleness) instead of evaluating.
	LevelStale
	// LevelShedQueries additionally sheds fresh queries outright. Report
	// delivery and readiness always keep working; this rung exists so a
	// wedged evaluator cannot pile up queued queries forever.
	LevelShedQueries
)

// String names the level for logs and metrics.
func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelNoTrace:
		return "no-trace"
	case LevelStale:
		return "stale"
	case LevelShedQueries:
		return "shed-queries"
	}
	return "unknown"
}

// LadderConfig tunes the degradation ladder. The zero value gives the
// documented defaults.
type LadderConfig struct {
	// High is the pressure (demanded weight / capacity) that counts as
	// overload (default 0.9). Low is the pressure below which the ladder
	// steps back down (default 0.5); the gap is the hysteresis band.
	High float64
	Low  float64
	// Climb is how long pressure must stay at or above High before the
	// ladder climbs one rung (default 500ms). A burst shorter than this
	// rides out in the admission queue without degrading anything.
	Climb time.Duration
	// Cool is how long pressure must stay below Low before the ladder
	// steps back down one rung (default 2s) — recovery is deliberately
	// slower than escalation so the ladder does not flap.
	Cool time.Duration
	// Now overrides the clock for tests.
	Now func() time.Time
}

// Ladder tracks sustained pressure and exposes the current degradation
// level. Pressure alone climbs at most to LevelStale; the last rung,
// LevelShedQueries, requires sustained queue stalls — admitted work not
// completing — because a saturated-but-flowing server is exactly the
// state where shedding fresh queries would destroy goodput for nothing.
type Ladder struct {
	cfg   LadderConfig
	level atomic.Int32

	mu         lockrank.Mutex[lockrank.Ladder]
	hiSince    time.Time // start of the current >=High streak
	loSince    time.Time // start of the current <Low streak
	stallSince time.Time // start of the current stall streak
}

// NewLadder builds a ladder from cfg, applying defaults for zero fields.
func NewLadder(cfg LadderConfig) *Ladder {
	if cfg.High <= 0 {
		cfg.High = 0.9
	}
	if cfg.Low <= 0 {
		cfg.Low = 0.5
	}
	if cfg.Climb <= 0 {
		cfg.Climb = 500 * time.Millisecond
	}
	if cfg.Cool <= 0 {
		cfg.Cool = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Ladder{cfg: cfg}
}

// Level returns the current degradation level (atomic; safe anywhere).
func (l *Ladder) Level() Level { return Level(l.level.Load()) }

// Observe feeds the ladder one pressure sample; stalled marks the
// sample as a queue-timeout stall. The controller calls it on every
// acquire and release, so samples arrive exactly as often as load does.
func (l *Ladder) Observe(pressure float64, stalled bool) {
	now := l.cfg.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	lvl := Level(l.level.Load())

	// Stall streak: only queue timeouts sustain it. It is the sole way
	// up to LevelShedQueries.
	if stalled {
		if l.stallSince.IsZero() {
			l.stallSince = now
		}
		if lvl >= LevelStale && lvl < LevelShedQueries && now.Sub(l.stallSince) >= l.cfg.Climb {
			l.level.Store(int32(LevelShedQueries))
			l.stallSince = now // a further climb needs a fresh streak
			l.hiSince = time.Time{}
			l.loSince = time.Time{}
			return
		}
	}

	switch {
	case pressure >= l.cfg.High:
		l.loSince = time.Time{}
		if l.hiSince.IsZero() {
			l.hiSince = now
		}
		if lvl < LevelStale && now.Sub(l.hiSince) >= l.cfg.Climb {
			l.level.Store(int32(lvl + 1))
			l.hiSince = now // one rung per sustained streak
		}
	case pressure < l.cfg.Low:
		l.hiSince = time.Time{}
		l.stallSince = time.Time{}
		if l.loSince.IsZero() {
			l.loSince = now
		}
		if lvl > LevelNormal && now.Sub(l.loSince) >= l.cfg.Cool {
			l.level.Store(int32(lvl - 1))
			l.loSince = now
		}
	default:
		// The hysteresis band: neither streak makes progress.
		l.hiSince = time.Time{}
		l.loSince = time.Time{}
	}
}
