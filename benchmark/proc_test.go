package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// A stand-in child: ignores its arguments, says something on stderr and
// then hangs, like a server would.
const fakeServer = "#!/bin/sh\necho started with $# arguments >&2\nexec sleep 60\n"

func TestHarnessLeavesNothingBehind(t *testing.T) {
	base := t.TempDir()
	h := &harness{root: base, binDir: filepath.Join(base, "bin"), runDir: filepath.Join(base, "run")}
	for _, d := range []string{h.binDir, h.runDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(h.binDir, "fake"), []byte(fakeServer), 0o755); err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, name := range []string{"one", "two"} {
		p, err := h.spawn(name, "fake", base, "-spec", "x")
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.cmd.Process.Pid)
	}
	first := h.procs[0]
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(first.logTail(5), "started with 4 arguments") {
		if time.Now().After(deadline) {
			t.Fatalf("child output did not reach its log: %q", first.logTail(5))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := first.stat(); err != nil {
		t.Errorf("reading /proc for a live child: %v", err)
	}
	h.close()
	for _, pid := range pids {
		// Reaped children are gone for good: signal 0 finds no process.
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("pid %d still exists after close: %v", pid, err)
		}
	}
	if _, err := os.Stat(h.runDir); !os.IsNotExist(err) {
		t.Errorf("run directory survives close: %v", err)
	}
	h.close() // closing twice is harmless
}

func TestWaitReadyReportsEarlyExit(t *testing.T) {
	base := t.TempDir()
	h := &harness{root: base, binDir: base, runDir: base}
	if err := os.WriteFile(filepath.Join(base, "dies"), []byte("#!/bin/sh\necho cannot open spec >&2\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	p, err := h.spawn("dies", "dies", base)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	_, err = p.waitReady("/readyz", nil)
	if err == nil || !strings.Contains(err.Error(), "cannot open spec") {
		t.Errorf("waitReady on a child that exits: %v; want its log tail in the error", err)
	}
}
