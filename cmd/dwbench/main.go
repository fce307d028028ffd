// Command dwbench regenerates every evaluation artifact of the paper —
// Figures 1–3, Examples 1.1–2.4 and 4.1, and the Section 4/5 claims — as
// named experiments E1..E16 (see DESIGN.md's experiment index and
// EXPERIMENTS.md for the recorded outcomes), plus E18, which prices the
// tracing layer (disabled instrumentation must be free, 1% sampling
// under 5% of refresh throughput). Each experiment prints the paper's
// expectation next to what this implementation measures. E17, E19 and
// E20 are retired, and ids are not reused: E17 raced the columnar
// operators against a row-at-a-time strawman, and E19 (overload) and E20
// (replication) ran miniatures of dwserve, whose gates are now tests of
// the code itself.
//
// Usage:
//
//	dwbench [-run E1,E5,E12] [-quick] [-seed 42] [-json BENCH_report.json]
//
// With -quick the sweeps use smaller sizes (useful in CI); the default
// sizes match the numbers recorded in EXPERIMENTS.md. With -json, a
// machine-readable report (one record per experiment, with outcome and
// wall time) is written to the given path — CI uploads it as a build
// artifact so runs are comparable across commits.
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
	if report.Failed > 0 {
		fmt.Fprintf(os.Stderr, "\n%d experiment(s) failed\n", report.Failed)
		os.Exit(1)
	}
}

// experiments returns all experiments in id order.
func experiments() []experiment {
	exps := []experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(),
		e8(), e9(), e10(), e11(), e12(), e13(), e14(), e15(), e16(), e18(),
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
