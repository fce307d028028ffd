// Command dwbench regenerates every evaluation artifact of the paper —
// Figures 1–3, Examples 1.1–2.4 and 4.1, and the Section 4/5 claims — as
// named experiments E1..E16 (see DESIGN.md's experiment index and
// EXPERIMENTS.md for the recorded outcomes), plus E17, the engine
// benchmark pitting the columnar batch operators against the
// string-keyed row-at-a-time reference, and E18, which prices the
// tracing layer (disabled instrumentation must be free, 1% sampling
// under 5% of refresh throughput). Each experiment prints the paper's
// expectation next to what this implementation measures.
//
// Usage:
//
//	dwbench [-run E1,E5,E12] [-quick] [-seed 42] [-json BENCH_report.json]
//	dwbench -quick -compare BENCH_report.quick.json [-tolerance 1.5]
//
// With -quick the sweeps use smaller sizes (useful in CI); the default
// sizes match the numbers recorded in EXPERIMENTS.md. With -json, a
// machine-readable report (one record per experiment, with outcome and
// wall time) is written to the given path — CI uploads it as a build
// artifact so runs are comparable across commits. With -compare, the run
// is additionally gated against a committed baseline report of the same
// mode (quick vs full): every *Speedup metric must stay within
// -tolerance of its baseline value (speedups are same-machine ratios, so
// they compare meaningfully across hosts where raw wall times would not).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// experiment is one named reproduction unit.
type experiment struct {
	id    string
	title string
	paper string // the paper artifact it reproduces
	run   func(*config) error
}

// config carries the shared knobs.
type config struct {
	quick   bool
	seed    int64
	out     io.Writer
	metrics map[string]float64
	// sharedHost is set by the package's own test sweep, which runs beside
	// the other packages' test binaries on the same CPUs: an experiment
	// keeps its correctness gates there and reports, without enforcing,
	// the ones that are wall-clock ratios.
	sharedHost bool
}

// metric records a named measurement for the experiment's JSON record.
func (c *config) metric(name string, v float64) {
	if c.metrics == nil {
		c.metrics = map[string]float64{}
	}
	c.metrics[name] = v
}

func (c *config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.out, format, args...)
}

// table prints an aligned table with a header row.
func (c *config) table(headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = cell + strings.Repeat(" ", widths[i]-len(cell))
		}
		fmt.Fprintln(c.out, "  "+strings.Join(parts, "  "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// expResult is one experiment's record in the JSON report.
type expResult struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Paper   string             `json:"paper"`
	OK      bool               `json:"ok"`
	Error   string             `json:"error,omitempty"`
	WallNs  int64              `json:"wallNs"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the machine-readable outcome of one dwbench run.
type benchReport struct {
	Schema      string      `json:"schema"` // "dwbench/v1"
	GoVersion   string      `json:"goVersion"`
	Quick       bool        `json:"quick"`
	Seed        int64       `json:"seed"`
	StartedAt   time.Time   `json:"startedAt"`
	WallNs      int64       `json:"wallNs"`
	Experiments []expResult `json:"experiments"`
	Failed      int         `json:"failed"`
}

// runExperiments executes the selected experiments against cfg and
// returns the report. selected may be empty (run all).
func runExperiments(cfg *config, selected map[string]bool) benchReport {
	report := benchReport{
		Schema:    "dwbench/v1",
		GoVersion: runtime.Version(),
		Quick:     cfg.quick,
		Seed:      cfg.seed,
		StartedAt: time.Now(),
	}
	for _, e := range experiments() {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		cfg.printf("\n%s — %s\n", e.id, e.title)
		cfg.printf("reproduces: %s\n", e.paper)
		cfg.metrics = nil
		start := time.Now()
		err := e.run(cfg)
		res := expResult{
			ID:      e.id,
			Title:   e.title,
			Paper:   e.paper,
			OK:      err == nil,
			WallNs:  time.Since(start).Nanoseconds(),
			Metrics: cfg.metrics,
		}
		if err != nil {
			cfg.printf("  FAILED: %v\n", err)
			res.Error = err.Error()
			report.Failed++
		}
		report.Experiments = append(report.Experiments, res)
	}
	report.WallNs = time.Since(report.StartedAt).Nanoseconds()
	return report
}

// writeReport writes the JSON report to path.
func writeReport(path string, report benchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment ids to run (default: all)")
	quick := flag.Bool("quick", false, "smaller sweep sizes")
	seed := flag.Int64("seed", 42, "random seed for generated workloads")
	jsonPath := flag.String("json", "", "write a machine-readable report to this path")
	comparePath := flag.String("compare", "", "baseline BENCH_report.json to gate this run against")
	tolerance := flag.Float64("tolerance", 1.5, "allowed regression factor for *Speedup metrics vs the baseline")
	flag.Parse()

	cfg := &config{quick: *quick, seed: *seed, out: os.Stdout}

	selected := map[string]bool{}
	if *runFlag != "" {
		for _, id := range strings.Split(*runFlag, ",") {
			selected[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	report := runExperiments(cfg, selected)
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, report); err != nil {
			fmt.Fprintln(os.Stderr, "dwbench:", err)
			os.Exit(1)
		}
	}
	if *comparePath != "" {
		violations, err := compareReports(report, *comparePath, *tolerance, selected)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwbench:", err)
			os.Exit(1)
		}
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "regression:", v)
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "\n%d benchmark regression(s) vs %s (tolerance %.2fx)\n",
				len(violations), *comparePath, *tolerance)
			os.Exit(1)
		}
		fmt.Printf("\nno benchmark regressions vs %s (tolerance %.2fx)\n", *comparePath, *tolerance)
	}
	if report.Failed > 0 {
		fmt.Fprintf(os.Stderr, "\n%d experiment(s) failed\n", report.Failed)
		os.Exit(1)
	}
}

// compareReports gates the current run against a committed baseline
// report: every experiment that was ok in the baseline (and selected in
// this run) must still be ok, and every metric named *Speedup must stay
// within the tolerance factor of its baseline value. Other metrics are
// informational — machine-to-machine wall-clock noise would make them
// meaningless as gates, while a speedup is a ratio of two measurements
// taken on the same machine in the same run.
func compareReports(cur benchReport, baselinePath string, tolerance float64, selected map[string]bool) ([]string, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var base benchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", baselinePath, err)
	}
	if base.Schema != cur.Schema {
		return nil, fmt.Errorf("%s: baseline schema %q, this run %q", baselinePath, base.Schema, cur.Schema)
	}
	// Speedups shrink with input size (fixed costs dominate small runs),
	// so a quick run gated against a full-size baseline — or vice versa —
	// would compare incomparable ratios.
	if base.Quick != cur.Quick {
		return nil, fmt.Errorf("%s: baseline quick=%v, this run quick=%v; compare same-mode reports", baselinePath, base.Quick, cur.Quick)
	}
	if tolerance < 1 {
		return nil, fmt.Errorf("tolerance %.2f < 1 would demand improvement on every run", tolerance)
	}
	curByID := make(map[string]expResult, len(cur.Experiments))
	for _, e := range cur.Experiments {
		curByID[e.ID] = e
	}
	var violations []string
	for _, b := range base.Experiments {
		if !b.OK || (len(selected) > 0 && !selected[b.ID]) {
			continue
		}
		c, ok := curByID[b.ID]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: in baseline but not in this run", b.ID))
			continue
		}
		if !c.OK {
			violations = append(violations, fmt.Sprintf("%s: ok in baseline, failed now: %s", b.ID, c.Error))
			continue
		}
		for name, want := range b.Metrics {
			if !strings.HasSuffix(name, "Speedup") {
				continue
			}
			got, ok := c.Metrics[name]
			if !ok {
				violations = append(violations, fmt.Sprintf("%s: metric %s missing from this run", b.ID, name))
				continue
			}
			if got < want/tolerance {
				violations = append(violations,
					fmt.Sprintf("%s: %s = %.2fx, baseline %.2fx (floor %.2fx at tolerance %.2f)",
						b.ID, name, got, want, want/tolerance, tolerance))
			}
		}
	}
	return violations, nil
}

// experiments returns all experiments in id order.
func experiments() []experiment {
	exps := []experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(),
		e8(), e9(), e10(), e11(), e12(), e13(), e14(), e15(), e16(), e17(), e18(), e19(), e20(),
	}
	sort.Slice(exps, func(i, j int) bool {
		// E1..E9 sort before E10 numerically.
		return expNum(exps[i].id) < expNum(exps[j].id)
	})
	return exps
}

func expNum(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}
