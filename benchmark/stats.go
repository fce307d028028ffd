package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentile is the tail the benchmark reports next to a median:
// the highest whole percentile, at most the 99th, that still has ten
// samples beyond it. Fewer samples than that make a percentile a single
// outlier's value, not a property of the system.
func tailPercentile(sorted []float64) (pct int, value float64) {
	n := len(sorted)
	for pct = 99; pct > 50; pct-- {
		rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
		if n-rank >= 10 {
			break
		}
	}
	return pct, quantile(sorted, float64(pct)/100)
}

// msOf converts durations to milliseconds for reporting.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// openLoop paces requests on a fixed schedule that does not wait for
// replies: request i is due at start + i*interval whatever happened to
// the requests before it. A single connection still sends them one at a
// time, so a slow reply delays the next send; that delay is the
// generator's lateness, and because latency is counted from the due
// time, the wait a stall imposes on later requests is part of what they
// report.
type openLoop struct {
	start    time.Time
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

func newOpenLoop(start time.Time, perSecond float64) *openLoop {
	return &openLoop{
		start:    start,
		interval: time.Duration(float64(time.Second) / perSecond),
		now:      time.Now,
		sleep:    time.Sleep,
	}
}

func (l *openLoop) due(i int) time.Time { return l.start.Add(time.Duration(i) * l.interval) }

// paced is one request's accounting in an open loop.
type paced struct {
	due      time.Time
	lateness time.Duration // send time - due time, never negative
	latency  time.Duration // completion - due time
}

// do waits for request i's due time, runs it, and returns its timing.
func (l *openLoop) do(i int, request func()) paced {
	p := paced{due: l.due(i)}
	if wait := p.due.Sub(l.now()); wait > 0 {
		l.sleep(wait)
	}
	p.lateness = max(l.now().Sub(p.due), 0)
	request()
	p.latency = l.now().Sub(p.due)
	return p
}
