package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwcomplement/internal/testmain"
)

func TestMain(m *testing.M) { testmain.Run(m) }

// TestAllExperimentsQuick runs every experiment end to end in quick mode:
// each one both exercises its code path and asserts its paper expectation
// internally (experiments return an error when the reproduction fails).
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	for _, e := range experiments() {
		e := e
		t.Run(e.id, func(t *testing.T) {
			var b strings.Builder
			cfg := &config{quick: true, seed: 42, out: &b}
			if err := e.run(cfg); err != nil {
				t.Fatalf("%s (%s): %v\noutput:\n%s", e.id, e.title, err, b.String())
			}
			if b.Len() == 0 {
				t.Errorf("%s produced no output", e.id)
			}
		})
	}
}

func TestExperimentInventory(t *testing.T) {
	// E1..E20 less the retired ids, which are never reused: E17 went with
	// the engine it was a miniature of, E19 and E20 with their miniatures
	// of dwserve.
	retired := map[string]bool{"E17": true, "E19": true, "E20": true}
	var want []string
	for n := 1; n <= 20; n++ {
		if id := fmt.Sprintf("E%d", n); !retired[id] {
			want = append(want, id)
		}
	}
	exps := experiments()
	if len(exps) != len(want) {
		t.Fatalf("%d experiments, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.id != want[i] {
			t.Errorf("experiment %d has id %s, want %s", i+1, e.id, want[i])
		}
		if e.title == "" || e.paper == "" {
			t.Errorf("%s lacks title or paper reference", e.id)
		}
	}
}

// TestJSONReport runs one experiment and checks the machine-readable
// report round-trips with the expected fields.
func TestJSONReport(t *testing.T) {
	var b strings.Builder
	cfg := &config{quick: true, seed: 42, out: &b}
	report := runExperiments(cfg, map[string]bool{"E1": true})
	if len(report.Experiments) != 1 || report.Experiments[0].ID != "E1" {
		t.Fatalf("report = %+v", report.Experiments)
	}
	if report.Failed != 0 || !report.Experiments[0].OK {
		t.Errorf("E1 failed: %+v", report.Experiments[0])
	}
	if report.Schema != "dwbench/v1" || report.GoVersion == "" || !report.Quick {
		t.Errorf("report header = %+v", report)
	}
	if report.Experiments[0].WallNs <= 0 || report.WallNs < report.Experiments[0].WallNs {
		t.Errorf("wall times inconsistent: %+v", report)
	}

	path := filepath.Join(t.TempDir(), "BENCH_report.json")
	if err := writeReport(path, report); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back benchReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if back.Experiments[0].Title != report.Experiments[0].Title {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestTableFormatting(t *testing.T) {
	var b strings.Builder
	cfg := &config{out: &b}
	cfg.table([]string{"col", "longer header"}, [][]string{
		{"a", "b"},
		{"wide cell", "c"},
	})
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
}
