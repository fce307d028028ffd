package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/testmain"
	"dwcomplement/internal/trace"
	"dwcomplement/internal/workload"
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
			// go test ./... runs this sweep beside the other packages'
			// binaries: wall-clock ratio gates (E19's goodput floor and shed
			// p95) are CI's to enforce, on the experiment run alone.
			cfg := &config{quick: true, seed: 42, out: &b, sharedHost: true}
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
	// E1..E20 less E17, retired with the engine it was a miniature of;
	// ids are not renumbered.
	exps := experiments()
	if len(exps) != 19 {
		t.Fatalf("%d experiments, want 19", len(exps))
	}
	for i, e := range exps {
		want := i + 1
		if want >= 17 {
			want++
		}
		if expNum(e.id) != want {
			t.Errorf("experiment %d has id %s", want, e.id)
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

// TestE20LeaderCommitTraced: a leader commit refreshes under the leader's
// lock with the caller's context, so a traced commit with a chaos point
// armed takes the tracer's, the spans' and chaos's locks inside it, in
// rank order.
func TestE20LeaderCommitTraced(t *testing.T) {
	sc := workload.Figure1(false)
	ld, err := newE20Leader(core.MustCompute(sc.DB, sc.Views, core.Proposition22()), workload.Figure1State(sc.DB))
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Arm("refresh.apply", 1<<30, errors.New("never reached"))()
	ctx, sp := trace.New(trace.Config{Rate: 1, Seed: 1}).Start(context.Background(), "commit")
	defer sp.End()
	u := catalog.NewUpdate().MustInsert("Emp", sc.DB, relation.String_("clerk"), relation.Int(30))
	if err := ld.commit(ctx, u); err != nil {
		t.Fatal(err)
	}
}
