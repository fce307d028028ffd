package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

const reportSchema = "dwbenchmark/v1"

// report is what a run of all four workloads writes with -out, and what
// -compare reads: enough about the machine and the inputs to tell
// whether two reports may be compared at all, then every run.
type report struct {
	Schema    string                   `json:"schema"`
	Seed      int64                    `json:"seed"`
	Rows      int                      `json:"rows"`
	Seconds   float64                  `json:"seconds"`
	Nproc     int                      `json:"nproc"`
	GoVersion string                   `json:"goVersion"`
	GitCommit string                   `json:"gitCommit"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// workloadRuns holds one workload's repeated end-to-end runs and its
// single traced run.
type workloadRuns struct {
	Runs   []runRecord `json:"runs"`
	Traced *runRecord  `json:"traced,omitempty"`
}

type runRecord struct {
	result
	detail
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload repeat times end to end and once traced,
// prints every metric by name and unit, and returns the exit code:
// non-zero when a correctness check failed or an operation was refused.
func runAll(root string, seed int64, window time.Duration, rows, repeat int, out string) int {
	rep := &report{
		Schema: reportSchema, Seed: seed, Rows: rows, Seconds: window.Seconds(),
		Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), GitCommit: gitCommit(root),
		Workloads: map[string]*workloadRuns{},
	}
	code := 0
	for _, w := range workloads {
		wr := &workloadRuns{}
		rep.Workloads[w.name] = wr
		for i := 0; i <= repeat; i++ {
			traced := i == repeat
			res, det, err := execute(root, w, seed, window, rows, traced, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct || res.Failed > 0 {
				code = 1
			}
			if traced {
				wr.Traced = &runRecord{*res, *det}
			} else {
				wr.Runs = append(wr.Runs, runRecord{*res, *det})
			}
		}
		printWorkload(os.Stdout, w, wr)
	}
	if out != "" {
		raw, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// values returns one metric's value in every run.
func (wr *workloadRuns) values(name string) []float64 {
	var out []float64
	for _, r := range wr.Runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// errorRate is failed, refused, wrong-count or never-visible operations
// over attempted ones, across the runs.
func (wr *workloadRuns) errorRate() float64 {
	var failed, attempted int
	for _, r := range wr.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func printWorkload(w io.Writer, wl workload, wr *workloadRuns) {
	fmt.Fprintf(w, "\n== %s: %s\n", wl.name, wl.why)
	last := wr.Runs[len(wr.Runs)-1]
	var classes []string
	for c, n := range last.Samples {
		classes = append(classes, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "   runs %d, samples in the window %s, headline p%d %.3f ms, generator lateness p99 %.3f ms, error_rate %.6f, correct %v\n",
		len(wr.Runs), strings.Join(classes, " "), last.TailPct, last.TailMs, last.LatenessMs, wr.errorRate(), last.Correct)
	for _, d := range endToEnd {
		vs := sortedCopy(wr.values(d.Name))
		fmt.Fprintf(w, "   %-44s %14.4f %-6s [%.4f .. %.4f]\n", d.Name, quantile(vs, 0.5), d.Unit, vs[0], vs[len(vs)-1])
	}
	if wr.Traced != nil {
		for _, d := range perLayer {
			fmt.Fprintf(w, "   %-44s %14.4f %s\n", d.Name, wr.Traced.Metrics[d.Name].Value, d.Unit)
		}
	}
	for _, p := range last.Problems {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", p)
	}
}
