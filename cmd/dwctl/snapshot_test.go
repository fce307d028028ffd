package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStatefulOperation drives the long-lived warehouse flow: snapshot,
// maintain from the snapshot, save again, and verify the state carried
// across invocations.
func TestStatefulOperation(t *testing.T) {
	spec := writeSpec(t, testSpec)
	snap := filepath.Join(t.TempDir(), "wh.snap")

	out, err := runCmd(t, "-spec", spec, "-save", snap, "snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "state saved to") {
		t.Errorf("snapshot output: %q", out)
	}

	// First maintenance batch against the snapshot.
	out, err = runCmd(t, "-spec", spec, "-state", snap, "-save", snap, "maintain",
		"insert Sale('Computer', 'Paula')")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "applied 1 source change(s)") {
		t.Errorf("first batch: %q", out)
	}

	// Second batch: the Computer sale from the first batch must still be
	// there (state restored from disk, not from the spec).
	out, err = runCmd(t, "-spec", spec, "-state", snap, "-save", snap, "maintain",
		"insert Sale('Radio', 'Mary')")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Computer") || !strings.Contains(out, "Radio") {
		t.Errorf("state not carried across invocations:\n%s", out)
	}

	// Reconstruction from the restored state sees both insertions.
	out, err = runCmd(t, "-spec", spec, "-state", snap, "reconstruct")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Computer") || !strings.Contains(out, "Radio") {
		t.Errorf("reconstruct from snapshot wrong:\n%s", out)
	}
}

func TestSnapshotErrors(t *testing.T) {
	spec := writeSpec(t, testSpec)
	// snapshot without -save.
	if _, err := runCmd(t, "-spec", spec, "snapshot"); err == nil {
		t.Error("snapshot without -save accepted")
	}
	// -state pointing nowhere.
	if _, err := runCmd(t, "-spec", spec, "-state", "/nonexistent.snap", "reconstruct"); err == nil {
		t.Error("missing snapshot accepted")
	}
	// -state with a mismatched spec (different view name → layout check).
	otherSpec := writeSpec(t, strings.Replace(testSpec, "view Sold", "view Sold2", 1))
	snap := filepath.Join(t.TempDir(), "wh.snap")
	if _, err := runCmd(t, "-spec", spec, "-save", snap, "snapshot"); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "-spec", otherSpec, "-state", snap, "reconstruct"); err == nil {
		t.Error("layout-mismatched snapshot accepted")
	}
}

// TestExportAndLoadRoundTrip exports base relations as CSV, then loads
// them back through a spec that uses load statements.
func TestExportAndLoadRoundTrip(t *testing.T) {
	spec := writeSpec(t, testSpec)
	dir := filepath.Join(t.TempDir(), "csv")
	out, err := runCmd(t, "-spec", spec, "export", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Sale.csv") || !strings.Contains(out, "Emp.csv") {
		t.Fatalf("export output: %q", out)
	}
	// A spec loading the exported CSVs reproduces the same warehouse.
	loaded := writeSpec(t, `
relation Sale(item string, clerk string)
relation Emp(clerk string, age int) key(clerk)
view Sold = pi{item, clerk, age}(Sale join Emp)
load Sale from '`+dir+`/Sale.csv'
load Emp from '`+dir+`/Emp.csv'
`)
	o1, err := runCmd(t, "-spec", spec, "dump")
	if err != nil {
		t.Fatal(err)
	}
	o2, err := runCmd(t, "-spec", loaded, "dump")
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 {
		t.Errorf("round trip changed the state:\noriginal:\n%s\nloaded:\n%s", o1, o2)
	}
	if _, err := runCmd(t, "-spec", spec, "export"); err == nil {
		t.Error("export without directory accepted")
	}
}
