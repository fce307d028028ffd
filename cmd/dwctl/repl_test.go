package main

import (
	"strings"
	"testing"

	dwc "dwcomplement"
)

func replSession(t *testing.T, script string) string {
	t.Helper()
	spec, err := dwc.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dwc.BuildWarehouse(spec.DB, spec.Views, dwc.Theorem22(), spec.State)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runREPL(w, spec.DB, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestREPLQueryAndMaintain(t *testing.T) {
	out := replSession(t, `
help
query pi{clerk}(Sale) union pi{clerk}(Emp)
insert Sale('Computer', 'Paula')
query sigma{clerk = 'Paula'}(Sale join Emp)
show Sold
relations
bases
complement
quit
`)
	for _, want := range []string{
		"commands:",
		"Q̂ =",
		"Paula",
		"ok: 1 source change(s)",
		"Computer",
		"Sold",
		"C_Emp",
		"Sale:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("repl output missing %q:\n%s", want, out)
		}
	}
}

func TestREPLExplain(t *testing.T) {
	out := replSession(t, `
explain pi{clerk}(Sale join Emp)
explain analyze pi{clerk}(Sale join Emp)
explain pi{zz}(Nope)
quit
`)
	for _, want := range []string{
		"Q̂ =",
		"π{clerk}", // static operator tree
		"└── ",     // tree glyphs in both renderings
		"rows=",    // executed plan counters
		"incl=",    // … with timings
		"totals:",
		"error:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestREPLErrors(t *testing.T) {
	out := replSession(t, `
query pi{zz}(Nope)
insert Nope(1)
show Nope
frobnicate
# a comment line

exit
`)
	if got := strings.Count(out, "error:"); got != 3 {
		t.Errorf("expected 3 errors, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "unknown command") {
		t.Errorf("unknown command not reported:\n%s", out)
	}
}

func TestREPLEOFTerminates(t *testing.T) {
	// A script without quit ends at EOF without error.
	out := replSession(t, "relations\n")
	if !strings.Contains(out, "Sold") {
		t.Errorf("output: %s", out)
	}
}

// TestREPLTraces: queries and refreshes are traced at rate 1; `traces`
// lists them and `trace` renders the most recent one's span tree with
// the maintainer's per-target children under the refresh.
func TestREPLTraces(t *testing.T) {
	out := replSession(t, `
query pi{clerk}(Sale)
insert Sale('Computer', 'Paula')
traces
trace
trace bogus
quit
`)
	for _, want := range []string{
		"query", // the traces listing names both roots
		"refresh",
		`error: bad trace id "bogus"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("repl output missing %q:\n%s", want, out)
		}
	}
	// `trace` with no argument renders the MOST RECENT trace — the
	// refresh, whose tree includes the maintainer's per-target children.
	_, after, _ := strings.Cut(out, "dw> trace ")
	if !strings.Contains(after, "refresh.target") || !strings.Contains(after, "copiedBytes=") {
		t.Errorf("default trace missing the refresh lineage with its copied bytes:\n%s", out)
	}
}
