package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), so the
// spread -compare computes is the one the driver computes.
func quartiles(xs []float64) (q [3]float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile range of a side's own repeats as a share
// of their median: how far apart two runs of the same code land.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return ratio(q[2]-q[0], q[1])
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of one workload between two sides. A
// metric whose own run-to-run spread exceeds its bound cannot resolve a
// change of that size, so it is reported as unresolved, never as ok.
func judge(d metricDef, old, new []float64) (verdict string, worse, spr float64) {
	mo, mn := quartiles(old)[1], quartiles(new)[1]
	worse = ratio(mn-mo, mo)
	if d.Better == higher {
		worse = -worse
	}
	spr = max(spread(old), spread(new))
	switch {
	case spr > d.Bound:
		return verdictUnresolved, worse, spr
	case worse > d.Bound:
		return verdictRegressed, worse, spr
	}
	return verdictOK, worse, spr
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// compareReports prints one row per workload and end-to-end metric and
// returns 1 if any metric regressed or any workload's error rate rose.
func compareReports(w io.Writer, oldPath, newPath string) int {
	old, err := readReport(oldPath)
	if err == nil {
		var nw *report
		if nw, err = readReport(newPath); err == nil {
			return compare(w, old, nw)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compare(w io.Writer, old, nw *report) int {
	for _, side := range []struct {
		label string
		r     *report
	}{{"old", old}, {"new", nw}} {
		fmt.Fprintf(w, "%s: commit %s, seed %d, rows %d, %gs windows, nproc %d, %s\n",
			side.label, side.r.GitCommit, side.r.Seed, side.r.Rows, side.r.Seconds, side.r.Nproc, side.r.GoVersion)
	}
	if old.Rows != nw.Rows || old.Seconds != nw.Seconds || old.Nproc != nw.Nproc {
		fmt.Fprintln(w, "warning: the two sides differ in rows, window or nproc; their numbers are not comparable")
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-14s %14s %14s %9s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloads {
		o, n := old.Workloads[wl.name], nw.Workloads[wl.name]
		if o == nil || n == nil || len(o.Runs) == 0 || len(n.Runs) == 0 {
			fmt.Fprintf(w, "%-13s missing on one side\n", wl.name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			ov, nv := o.values(d.Name), n.values(d.Name)
			verdict, worse, spr := judge(d, ov, nv)
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-14s %14.4f %14.4f %+8.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d; samples %d,%d; lateness p99 %.2f,%.2f ms)\n",
				wl.name, d.Name, quartiles(ov)[1], quartiles(nv)[1], worse*100, spr*100, d.Bound*100, verdict,
				len(ov), len(nv), o.Runs[len(o.Runs)-1].Headline, n.Runs[len(n.Runs)-1].Headline,
				o.Runs[len(o.Runs)-1].LatenessMs, n.Runs[len(n.Runs)-1].LatenessMs)
		}
		oe, ne := o.errorRate(), n.errorRate()
		verdict := verdictOK
		if ne > oe {
			verdict, code = verdictRegressed, 1
		}
		fmt.Fprintf(w, "%-13s %-14s %14.6f %14.6f %42s%s\n", wl.name, "error_rate", oe, ne, "", verdict)
	}
	return code
}
