package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/relation"
)

// Source independence as regression tests: what the paper claims of
// W = V ∪ C — answers and maintenance without the sources — held of the
// process too. The spec is testSpec's schema with its data in CSV files.

const csvSpec = `
relation Sale(item string, clerk string)
relation Emp(clerk string, age int) key(clerk)
ind Sale[clerk] <= Emp[clerk]
view Sold = pi{item, clerk, age}(Sale join Emp)
load Emp from 'emp.csv'
load Sale from 'sale.csv'
`

var csvFiles = map[string]string{
	"emp.csv":  "clerk:string,age:int\nMary,23\nPaula,32\n",
	"sale.csv": "item:string,clerk:string\nTV set,Mary\n",
}

// writeCSVSpec writes csvSpec as warehouse.dw, and the files it loads,
// into dir.
func writeCSVSpec(t *testing.T, dir string) string {
	t.Helper()
	for name, body := range csvFiles {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "warehouse.dw")
	if err := os.WriteFile(path, []byte(csvSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// specDefs parses csvSpec the way main does: definitions only, load paths
// anchored at dir.
func specDefs(t *testing.T, dir string) *dwc.Spec {
	t.Helper()
	ds, err := dwc.ParseSpecDefs(csvSpec, dir)
	if err == nil && len(ds.Issues) > 0 {
		err = ds.Issues[0]
	}
	if err != nil {
		t.Fatal(err)
	}
	if ds.Spec.State != nil {
		t.Fatal("ParseSpecDefs built a state")
	}
	return ds.Spec
}

// serve wraps a server for HTTP traffic, torn down with the test.
func serve(t *testing.T, srv *server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		srv.stopFollower()
		srv.drainCheckpoint()
	})
	return ts
}

// TestRestartNeedsNoSources: a leader with a checkpoint and a journal
// suffix restarts after every file its spec loads has been deleted, and
// reconstructs every base relation of W(d').
func TestRestartNeedsNoSources(t *testing.T) {
	data, snap := t.TempDir(), t.TempDir()
	writeCSVSpec(t, data)
	srv, err := newServer(specDefs(t, data), dwc.Theorem22(), serverConfig{SnapshotDir: snap, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	ops := []string{"insert Emp('John', 41)", "insert Sale('Radio', 'Paula')", "delete Sale('TV set', 'Mary')"}
	for _, op := range ops {
		postUpdate(t, ts.URL, op)
	}
	crash(t, srv, ts)

	// The oracle is built while the sources still exist.
	eager, err := dwc.ParseSpecAt(csvSpec, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := mustOps(t, eager.DB, op).Apply(eager.State); err != nil {
			t.Fatal(err)
		}
	}
	for name := range csvFiles {
		if err := os.Remove(filepath.Join(data, name)); err != nil {
			t.Fatal(err)
		}
	}

	srv2, err := newServer(specDefs(t, data), dwc.Theorem22(), serverConfig{SnapshotDir: snap, CheckpointEvery: 2})
	if err != nil {
		t.Fatalf("restart without the sources: %v", err)
	}
	if srv2.replayed != 1 { // updates 1 and 2 are in the checkpoint
		t.Fatalf("replayed %d journal records, want 1", srv2.replayed)
	}
	ts2 := serve(t, srv2)
	bases, err := srv2.cur.Load().w.ReconstructBases()
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range eager.DB.Names() {
		want := eager.State.MustRelation(base)
		var body struct {
			Count int `json:"count"`
		}
		if code := getJSON(t, ts2.URL+"/reconstruct/"+base, &body); code != http.StatusOK || body.Count != want.Len() {
			t.Errorf("/reconstruct/%s after the restart: status %d, %d rows, want %d", base, code, body.Count, want.Len())
		}
		if !bases[base].Equal(want) {
			t.Errorf("%s after the restart:\ngot  %v\nwant %v", base, bases[base], want)
		}
	}
	st := srv2.boot.stats()
	if st.RowsLoaded != 0 || st.BytesRead != 0 {
		t.Errorf("a restart read %d rows, %d bytes of sources", st.RowsLoaded, st.BytesRead)
	}
}

// TestFollowerBootsWithoutSources: a follower whose spec loads files that
// never existed answers 503 until the leader's snapshot is installed, then
// serves what the leader serves, byte for byte.
func TestFollowerBootsWithoutSources(t *testing.T) {
	leader, lts := newReplicaNode(t)
	postUpdate(t, lts.URL, "insert Sale('Radio', 'Paula')")

	fsrv, err := newServer(specDefs(t, filepath.Join(t.TempDir(), "nowhere")), dwc.Theorem22(),
		serverConfig{SnapshotDir: t.TempDir(), CheckpointEvery: 8, Follower: true})
	if err != nil {
		t.Fatalf("follower boot without sources: %v", err)
	}
	fts := serve(t, fsrv)
	for _, path := range []string{"/readyz", "/query?q=Sale", "/relations", "/relations/Sold", "/reconstruct/Emp", "/replica/snapshot"} {
		resp, body := get(t, fts.URL+path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s before bootstrap: status %d, body %s", path, resp.StatusCode, body)
		}
		if path != "/readyz" && (resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-DW-Version") != "") {
			t.Errorf("%s before bootstrap: Retry-After %q, X-DW-Version %q", path, resp.Header.Get("Retry-After"), resp.Header.Get("X-DW-Version"))
		}
	}
	if code := postText(t, fts.URL+"/promote", "", new(map[string]any)); code != http.StatusServiceUnavailable {
		t.Errorf("promote before bootstrap: status %d", code)
	}

	follow(t, fsrv, lts.URL)
	deadline := time.Now().Add(30 * time.Second)
	for !fsrv.snapshotLoaded.Load() {
		if time.Now().After(deadline) {
			t.Fatal("follower never bootstrapped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	postUpdate(t, lts.URL, "insert Emp('John', 41)")
	_, lsn, _ := coords(leader)
	waitLSN(t, fsrv, lsn)
	if resp, body := get(t, fts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after bootstrap: %d %s", resp.StatusCode, body)
	}
	for _, name := range leader.cur.Load().w.Names() {
		_, want := get(t, lts.URL+"/relations/"+name)
		resp, got := get(t, fts.URL+"/relations/"+name)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("/relations/%s: status %d\nfollower %sleader   %s", name, resp.StatusCode, got, want)
		}
	}
	phases := fsrv.boot.stats().Phases
	if last := phases[len(phases)-1].Phase; last != "bootstrap" {
		t.Errorf("boot ledger ends with %q, want bootstrap: %v", last, phases)
	}
	if _, err := os.Stat(checkpointPath(fsrv.cfg.SnapshotDir)); err != nil {
		t.Errorf("bootstrap left no local checkpoint: %v", err)
	}
}

// TestFollowerStoppedBeforeBootstrapLeavesNoCheckpoint: shutting down a
// follower that never got a state must not write an empty one for the
// next boot to trust.
func TestFollowerStoppedBeforeBootstrapLeavesNoCheckpoint(t *testing.T) {
	snap := t.TempDir()
	fsrv, err := newServer(mustSpec(t, testSpec), dwc.Theorem22(), serverConfig{SnapshotDir: snap, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := fsrv.shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(checkpointPath(snap)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint after an unmaterialized shutdown: %v", err)
	}
}

// TestFirstBootMissingSource: a first boot is the one start that needs the
// sources, and says which line asked for the one it could not open.
func TestFirstBootMissingSource(t *testing.T) {
	data := t.TempDir()
	writeCSVSpec(t, data)
	if err := os.Remove(filepath.Join(data, "sale.csv")); err != nil {
		t.Fatal(err)
	}
	_, err := newServer(specDefs(t, data), dwc.Theorem22(), serverConfig{SnapshotDir: t.TempDir()})
	if err == nil || !regexp.MustCompile(`^line 7: open .*sale\.csv: no such file or directory$`).MatchString(err.Error()) {
		t.Fatalf("first boot without sale.csv: %v", err)
	}
}

// TestServerKeepsNoSourceState: once newServer has returned, nothing the
// server holds reaches the state it initialized from — the caller's spec
// is the only way to it, and is left as it was. The finalizers sit on the
// state itself and on a relation no operator indexes: an index points back
// at its relation, and a cycle through a finalized object is never freed.
func TestServerKeepsNoSourceState(t *testing.T) {
	spec := mustSpec(t, testSpec+"relation Note(text string)\nview Notes = Note\ninsert Note('kept by nobody')\n")
	collected := make(chan string, 2)
	runtime.SetFinalizer(spec.State, func(*dwc.State) { collected <- "state" })
	runtime.SetFinalizer(spec.State.MustRelation("Note"), func(*relation.Relation) { collected <- "relation" })
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.State == nil || spec.State.Size() != 4 {
		t.Fatal("newServer touched the caller's spec.State")
	}
	spec = nil
	for seen, i := 0, 0; seen < 2; i++ {
		runtime.GC()
		select {
		case <-collected:
			seen++
		case <-time.After(10 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("the server still reaches the state it was initialized from")
		}
	}
	runtime.KeepAlive(srv)
}

// TestBootLedger: the phases of a first boot and of a restart, contiguous
// from the ledger's start to the listener, published under /stats and
// /metrics.
func TestBootLedger(t *testing.T) {
	data, snap := t.TempDir(), t.TempDir()
	writeCSVSpec(t, data)
	names := func(st bootStats) string {
		var out []string
		for _, p := range st.Phases {
			out = append(out, p.Phase)
		}
		return strings.Join(out, " ")
	}
	for _, tc := range []struct{ boot, phases string }{
		{"first", "parse complement load check materialize replay listen"},
		{"restart", "parse complement snapshot_load verify replay listen"},
	} {
		start := time.Now()
		boot := newBootLedger(start)
		spec := specDefs(t, data)
		boot.mark("parse")
		srv, err := newServer(spec, dwc.Theorem22(), serverConfig{SnapshotDir: snap, Boot: boot})
		if err != nil {
			t.Fatal(err)
		}
		before := time.Since(start)
		boot.mark("listen")
		wall := time.Since(start)
		st := srv.boot.stats()
		if got := names(st); got != tc.phases {
			t.Errorf("%s boot: phases %q, want %q", tc.boot, got, tc.phases)
		}
		// The phases are contiguous from start to the last mark: their sum
		// is that mark's time since start, which lies between the readings
		// taken either side of it.
		if total := time.Duration(st.TotalNs); total < before || total > wall {
			t.Errorf("%s boot: phases sum to %s, the last mark lies in [%s, %s]", tc.boot, total, before, wall)
		}
		if tc.boot == "first" && (st.RowsLoaded != 3 || st.BytesRead != int64(len(csvFiles["emp.csv"])+len(csvFiles["sale.csv"]))) {
			t.Errorf("first boot loaded %d rows, %d bytes", st.RowsLoaded, st.BytesRead)
		}
		ts := httptest.NewServer(srv.handler())
		var stats struct {
			Boot bootStats `json:"boot"`
		}
		getJSON(t, ts.URL+"/stats", &stats)
		if names(stats.Boot) != tc.phases || stats.Boot.TotalNs != st.TotalNs {
			t.Errorf("%s boot: /stats boot = %+v", tc.boot, stats.Boot)
		}
		_, metrics := getText(t, ts.URL+"/metrics")
		for _, phase := range strings.Fields(tc.phases) {
			if !strings.Contains(metrics, fmt.Sprintf("dw_boot_phase_seconds{phase=%q} ", phase)) {
				t.Errorf("%s boot: no dw_boot_phase_seconds gauge for %s", tc.boot, phase)
			}
		}
		ts.Close()
		if err := srv.shutdown(); err != nil { // leaves the checkpoint the restart boots from
			t.Fatal(err)
		}
	}
}

// --- the binaries, from a foreign working directory ------------------------

// buildBinary compiles the package in dir (relative to this one) into a
// temporary directory.
func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", dir, err, out)
	}
	return bin
}

// freeAddr returns a loopback address nothing listens on at the moment.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startBinary runs bin in cwd and waits until probe answers 200; the
// process is killed with the test. Its output is returned on failure.
func startBinary(t *testing.T, bin, cwd, addr, probe string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Dir = cwd
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit is observed through exited; the status is in the output
		close(exited)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // already gone is fine
		<-exited
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			t.Fatalf("%s exited before serving:\n%s", filepath.Base(bin), out.String())
		default:
		}
		if resp, err := http.Get("http://" + addr + probe); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s not serving after 30s:\n%s", filepath.Base(bin), out.String())
}

// TestBinariesResolveLoadsAgainstSpecDir: vet and the server read the same
// files — the ones beside the spec — wherever the process was started. The
// foreign directory holds same-named files with other rows, which nothing
// may serve.
func TestBinariesResolveLoadsAgainstSpecDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	data, foreign := t.TempDir(), t.TempDir()
	specPath := writeCSVSpec(t, data)
	if err := os.WriteFile(filepath.Join(foreign, "emp.csv"), []byte("clerk:string,age:int\nImpostor,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(foreign, "sale.csv"), []byte("item:string,clerk:string\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	dwserve := buildBinary(t, ".", "dwserve")
	addr := freeAddr(t)
	startBinary(t, dwserve, foreign, addr, "/readyz", "-spec", specPath)
	var emp struct {
		Tuples [][]any `json:"tuples"`
	}
	if code := getJSON(t, "http://"+addr+"/reconstruct/Emp", &emp); code != http.StatusOK ||
		fmt.Sprint(emp.Tuples) != "[[Mary 23] [Paula 32]]" {
		t.Errorf("dwserve started in %s reconstructs Emp as %v (status %d), want the rows beside the spec", foreign, emp.Tuples, code)
	}

	dwsource := buildBinary(t, filepath.Join("..", "dwsource"), "dwsource")
	startBinary(t, dwsource, foreign, freeAddr(t), "/healthz", "-spec", specPath, "-name", "sales", "-owns", "Sale")

	// A first boot that cannot open a source still says which line wanted it.
	if err := os.Remove(filepath.Join(data, "sale.csv")); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(dwserve, "-spec", specPath, "-addr", freeAddr(t))
	cmd.Dir = foreign
	out, err := cmd.CombinedOutput()
	if err == nil || !regexp.MustCompile(`(?m)^dwserve: line 7: open .*sale\.csv: no such file or directory$`).Match(out) {
		t.Errorf("dwserve without sale.csv: %v\n%s", err, out)
	}
}
