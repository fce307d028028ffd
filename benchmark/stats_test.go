package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := ramp(100)
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{3, 1}); got != 1 {
		t.Errorf("median of two = %v, want the lower, 1", got)
	}
}

// The reported tail is the highest percentile with ten samples beyond.
func TestTailPercentileTenBeyond(t *testing.T) {
	for n, want := range map[int]int{5000: 99, 1000: 99, 999: 98, 750: 98, 300: 96, 40: 75, 15: 50} {
		pct, v := tailPercentile(ramp(n))
		if pct != want {
			t.Errorf("n=%d: tail percentile %d, want %d", n, pct, want)
		}
		if beyond := n - int(v); pct > 50 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%d", n, beyond, pct)
		}
	}
}

// fakeClock lets the open loop run without real time passing.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := newOpenLoop(clk.t, 100) // one request every 10 ms
	l.now, l.sleep = clk.now, clk.sleep
	cost := []time.Duration{1, 35, 1, 1, 1, 1} // ms each request takes; the second stalls
	var got []paced
	for i, c := range cost {
		got = append(got, l.do(i, func() { clk.sleep(c * time.Millisecond) }))
	}
	ms := time.Millisecond
	// Request 1 is due at 10 and done at 45. Requests 2, 3 and 4 (due at
	// 20, 30, 40) could not be sent before 45, 46 and 47: their lateness
	// is the stall they inherited, and their latency includes it.
	wantLate := []time.Duration{0, 0, 25 * ms, 16 * ms, 7 * ms, 0}
	wantLat := []time.Duration{1 * ms, 35 * ms, 26 * ms, 17 * ms, 8 * ms, 1 * ms}
	for i := range cost {
		if got[i].due != l.start.Add(time.Duration(i)*10*ms) {
			t.Errorf("request %d due at %v", i, got[i].due.Sub(l.start))
		}
		if got[i].lateness != wantLate[i] || got[i].latency != wantLat[i] {
			t.Errorf("request %d: lateness %v latency %v, want %v and %v",
				i, got[i].lateness, got[i].latency, wantLate[i], wantLat[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := quartiles(ramp(10)), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartiles([]float64{2, 1}), [3]float64{0.75, 1.5, 2.25}; got != want {
		t.Errorf("quartiles(1,2) = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{"op_p50_ms", "ms", lower, 0.10}
	rate := metricDef{"ops_per_s", "1/s", higher, 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"same", lat, steady, steady, verdictOK},
		{"slower within bound", lat, steady, []float64{108, 109, 107, 108, 108}, verdictOK},
		{"slower beyond bound", lat, steady, []float64{120, 121, 119, 120, 120}, verdictRegressed},
		{"faster", lat, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"rate fell", rate, steady, []float64{80, 81, 79, 80, 80}, verdictRegressed},
		{"rate rose", rate, steady, []float64{130, 131, 129, 130, 130}, verdictOK},
		{"too noisy to tell", lat, steady, []float64{90, 150, 100, 130, 110}, verdictUnresolved},
		{"single runs", lat, []float64{100}, []float64{125}, verdictRegressed},
	} {
		if got, _, _ := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpeedFactorScalesToNominal(t *testing.T) {
	// A machine on which the yardstick takes twice its nominal time
	// halves every reported time; too few samples are an error, not 1.
	slow := make([]float64, minYardSamples)
	for i := range slow {
		slow[i] = 2 * yardPointMs
	}
	f, err := speedFactor(slow)
	if err != nil || math.Abs(f-0.5) > 1e-12 {
		t.Errorf("speedFactor = %v, %v; want 0.5", f, err)
	}
	if _, err := speedFactor(slow[:minYardSamples-1]); err == nil {
		t.Error("speedFactor accepted fewer than minYardSamples samples")
	}
	got := atNominalBoot([]float64{3, 1}, []float64{2 * yardBootS, yardBootS / 2})
	if math.Abs(got[0]-1.5) > 1e-12 || math.Abs(got[1]-2) > 1e-12 {
		t.Errorf("atNominalBoot = %v, want [1.5 2]", got)
	}
}

func TestBusyRateIgnoresTimeBetweenOperations(t *testing.T) {
	t0 := time.Now()
	ss := []sample{{"q", t0, 10 * time.Millisecond, 0}, {"q", t0.Add(time.Second), 30 * time.Millisecond, 0}}
	if got := busyRate(ss); math.Abs(got-50) > 1e-9 {
		t.Errorf("busyRate = %v, want 50 operations per busy second", got)
	}
}
