// Command benchmark drives the real dwserve and dwsource binaries as
// child processes over loopback HTTP and reports what a user of the
// warehouse would see: latency, throughput, update-to-visible lag,
// start-up, recovery and bootstrap times, memory and bytes stored. See
// README.md in this directory for the workloads and the metric tables.
//
//	bash benchmark/run.sh --workload query_ro --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh --seed 1 --out report.json      # all four workloads
//	bash benchmark/run.sh --compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract with the driver.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	root := fs.String("root", "..", "repository checkout holding cmd/dwserve and cmd/dwsource")
	name := fs.String("workload", "", "workload to run (default: all four, as a report)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed window")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics (scrapes plus the in-process traced run) instead of the end-to-end ones")
	rows := fs.Int("rows", 100000, "source rows generated; the contract workloads are defined at 100000")
	out := fs.String("out", "", "with all workloads: write the report here; with -trace 1: directory for spans.jsonl")
	repeat := fs.Int("repeat", 1, "with all workloads: end-to-end runs per workload (-compare needs several to judge spread)")
	contract := fs.Bool("contract", false, "print BENCHMARK.json as generated from the metric tables and exit")
	compare := fs.Bool("compare", false, "compare two reports given as arguments: old.json new.json")
	_ = fs.Parse(os.Args[1:])

	if *contract {
		os.Stdout.Write(contractJSON())
		return
	}
	if *compare {
		if fs.NArg() != 2 {
			fatal(2, "usage: -compare old.json new.json")
		}
		os.Exit(compareReports(os.Stdout, fs.Arg(0), fs.Arg(1)))
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fatal(2, "%v", err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *name == "" {
		os.Exit(runAll(abs, *seed, window, *rows, max(*repeat, 1), *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(2, "unknown workload %q", *name)
	}
	res, _, err := execute(abs, w, *seed, window, *rows, *trace == 1, *out)
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// phaseLogger returns a function that reports, on standard error, what
// the run just finished and how long it took.
func phaseLogger(name string) func(format string, args ...any) {
	last := time.Now()
	return func(format string, args ...any) {
		now := time.Now()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s (%.1fs)\n", name, fmt.Sprintf(format, args...), now.Sub(last).Seconds())
		last = now
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// detail is what a run knows beyond its result line: sample counts,
// generator lateness and the problems found, for the report.
type detail struct {
	Samples    map[string]int `json:"samples"`
	Headline   int            `json:"headlineSamples"` // samples behind op_p50_ms and the headline tail
	TailPct    int            `json:"tailPercentile"`
	TailMs     float64        `json:"headlineTailMs"`
	LatenessMs float64        `json:"generatorLatenessP99Ms"`
	Speed      float64        `json:"speedFactor"` // nominal / measured yardstick time
	Problems   []string       `json:"problems,omitempty"`
}

// execute runs one workload once and assembles its metrics.
func execute(root string, w workload, seed int64, window time.Duration, rows int, traced bool, out string) (*result, *detail, error) {
	h, err := newHarness(root, w.name)
	if err != nil {
		return nil, nil, err
	}
	defer h.close()
	defer onSignal(h.close)()

	phase := phaseLogger(w.name)
	r := &run{w: w, seconds: window, traced: traced, h: h}
	r.d = generate(seed, rows)
	r.pool = r.d.pool()
	r.m = newModel(r.d)
	for _, q := range r.pool.all {
		q.rows = len(r.m.answer(q))
	}
	if r.dataDir, err = h.dir("data"); err != nil {
		return nil, nil, err
	}
	if r.csvBytes, err = r.d.writeFiles(r.dataDir); err != nil {
		return nil, nil, err
	}

	phase("generated %d source rows", r.d.sourceRows())
	setupS, yardS, err := r.setup()
	if err != nil {
		return nil, nil, err
	}
	phase("set up %d time(s): median %.3f s, yardstick boot %.3f s", len(setupS), median(setupS), median(yardS))
	var before, after scrape
	if traced {
		if before, err = r.scrapeAll(); err != nil {
			return nil, nil, err
		}
	}
	win := r.drive()
	if traced {
		if after, err = r.scrapeAll(); err != nil {
			return nil, nil, err
		}
	}
	phase("drove %s warm-up + %s window", warmup, window)
	layers := newMetricSet(perLayer)
	if traced {
		spans, sum, err := r.tracedRun(out)
		if err != nil {
			return nil, nil, err
		}
		r.layerMetrics(layers, spans, sum)
		r.processMetrics(layers, win, before, after)
		phase("ran the in-process traced replay (%d spans)", len(spans))
	}
	lc, err := r.finish()
	if err != nil {
		return nil, nil, err
	}
	phase("checked oracles, recovered, bootstrapped, stopped")

	headline := win.headline(w)
	if len(headline) == 0 {
		return nil, nil, errNoSamples
	}
	yard := sortedCopy(latenciesMs(win.byClass[classYard]))
	speed, err := speedFactor(yard)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: r.attempted, Failed: r.failed}
	det := &detail{Samples: map[string]int{}, Headline: len(headline), Speed: speed, Problems: r.problems}
	for class, ss := range win.byClass {
		det.Samples[class] = len(ss)
	}
	if len(win.lateness) > 0 {
		det.LatenessMs = quantile(sortedCopy(msOf(win.lateness)), 0.99)
	}
	lat := sortedCopy(latenciesMs(headline))
	det.TailPct, det.TailMs = tailPercentile(lat)
	metrics := layers
	if traced {
		layers.set("dwserve.recover_s", lc.recoverS)
		layers.set("dwserve.bootstrap_s", lc.bootstrapS)
		layers.set("yardstick.point_ms", quantile(yard, 0.5))
		layers.set("yardstick.boot_s", median(yardS))
	} else {
		// Times and rates are reported at the yardstick's nominal speed;
		// see speed.go. The raw numbers go to standard error.
		rate := busyRate(headline)
		phase("as measured: op_p50_ms %.4f, ops_per_s %.2f, yardstick %.4f ms over %d requests, speed factor %.3f",
			quantile(lat, 0.5), rate, quantile(yard, 0.5), len(yard), speed)
		metrics = newMetricSet(endToEnd)
		metrics.set("setup_s", median(atNominalBoot(setupS, yardS)))
		metrics.set("op_p50_ms", quantile(lat, 0.5)*speed)
		if w.pipeline {
			metrics.set("ops_per_s", float64(withinLimit(headline))/window.Seconds())
		} else {
			metrics.set("ops_per_s", rate/speed)
		}
		metrics.set("rss_mb", lc.rssMB)
		metrics.set("storage_ratio", lc.storageRatio)
	}
	if res.Metrics, err = metrics.complete(); err != nil {
		return nil, nil, err
	}
	res.Correct = len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
	}
	return res, det, nil
}

// headline returns the samples of the workload's headline operation:
// queries where an analyst is waiting, durable acks on the write-only
// workload, update-to-visible lag on the pipeline.
func (w window) headline(wl workload) []sample {
	switch {
	case wl.pipeline:
		return w.byClass["lag"]
	case wl.reader:
		var all []sample
		for _, cs := range classShare {
			all = append(all, w.byClass[cs.class]...)
		}
		return all
	default:
		return w.byClass["update"]
	}
}

// lagLimit is the visibility limit of the pipeline's goodput: an update
// counts towards ops_per_s on pipeline_lag only if the follower showed
// it within this long of its due time. The unstalled hop takes about a
// fifth of it, so the count is the share of time the pipeline was not
// stalled behind a checkpoint, times the posting rate.
const lagLimit = 100 * time.Millisecond

func withinLimit(lags []sample) int {
	n := 0
	for _, s := range lags {
		if s.latency <= lagLimit {
			n++
		}
	}
	return n
}

// busyRate is a closed loop's throughput: operations per second of the
// time its client spent waiting for them. The yardstick requests the
// loop sends in between take window time but are no part of that.
func busyRate(ss []sample) float64 {
	var busy time.Duration
	for _, s := range ss {
		busy += s.latency
	}
	return float64(len(ss)) / busy.Seconds()
}

func latenciesMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.latency) / float64(time.Millisecond)
	}
	return out
}
