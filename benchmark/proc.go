package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process hygiene: every child the benchmark starts is registered with
// the harness, which kills and reaps all of them on every exit path
// (normal return, failed check, SIGINT/SIGTERM). Children write their
// stderr (dwserve's request log) to a file in the run directory; its
// tail is printed when a run fails.

const (
	readyDeadline = 60 * time.Second
	pollInterval  = 2 * time.Millisecond
)

// harness owns one run's directory tree and child processes.
type harness struct {
	root   string // repository checkout
	binDir string // built dwserve / dwsource
	runDir string // this run's spec, CSVs, snapshot dirs and logs

	mu    sync.Mutex
	procs []*proc
}

// buildDir is where everything the benchmark writes goes: inside the
// checkout, named in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// goEnv keeps the Go toolchain's cache and scratch files inside the
// checkout too, and stops it from fetching anything.
func goEnv(root string) []string {
	b := buildDir(root)
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(b, "gocache"),
		"GOTMPDIR="+filepath.Join(b, "tmp"),
		"GOFLAGS=-buildvcs=false",
		"GOTOOLCHAIN=local",
		"GOPROXY=off",
	)
}

// goBuild compiles packages (relative to dir) into the harness's bin
// directory. It runs on every invocation: with a warm cache an
// unchanged tree costs a fraction of a second, and a stale binary would
// silently measure the wrong commit.
func goBuild(root, dir string, pkgs ...string) (binDir string, err error) {
	binDir = filepath.Join(buildDir(root), "bin")
	for _, d := range []string{binDir, filepath.Join(buildDir(root), "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return "", err
		}
	}
	cmd := exec.Command("go", append([]string{"build", "-o", binDir + string(os.PathSeparator)}, pkgs...)...)
	cmd.Dir = dir
	cmd.Env = goEnv(root)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %v in %s: %w\n%s", pkgs, dir, err, out)
	}
	return binDir, nil
}

func newHarness(root, label string) (*harness, error) {
	binDir, err := goBuild(root, root, "./cmd/dwserve", "./cmd/dwsource")
	if err != nil {
		return nil, err
	}
	if _, err := goBuild(root, filepath.Join(root, "benchmark"), "./yardstick"); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(buildDir(root), "run-"+label+"-")
	if err != nil {
		return nil, err
	}
	return &harness{root: root, binDir: binDir, runDir: runDir}, nil
}

// close kills every child still running and removes the run directory.
func (h *harness) close() {
	h.mu.Lock()
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(h.runDir)
}

// dir creates (or empties) a subdirectory of the run directory.
func (h *harness) dir(name string) (string, error) {
	d := filepath.Join(h.runDir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// proc is one child process serving HTTP on a loopback port.
type proc struct {
	name    string
	url     string
	cmd     *exec.Cmd
	logPath string
	started time.Time
	exited  chan struct{} // closed once Wait has returned
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts a binary from the bin directory with -addr set to a free
// loopback port, its working directory at dataDir (the spec's load
// paths are relative) and its output appended to <name>.log.
func (h *harness) spawn(name, bin, dataDir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(h.runDir, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(h.binDir, bin), append(args, "-addr", addr)...)
	cmd.Dir = dataDir
	cmd.Stdout, cmd.Stderr = logf, logf
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	return p, nil
}

// kill sends SIGKILL and waits until the process has been reaped.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// terminate asks for a graceful shutdown (dwserve drains and writes a
// final checkpoint) and waits for the exit.
func (p *proc) terminate(deadline time.Duration) error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return nil
	case <-time.After(deadline):
		p.kill()
		return fmt.Errorf("%s ignored SIGTERM for %s", p.name, deadline)
	}
}

// waitReady polls path until it answers 200 and ok (when given) accepts
// the moment, and returns the time since the process was spawned.
func (p *proc) waitReady(path string, ok func() bool) (time.Duration, error) {
	c := &http.Client{Timeout: 2 * time.Second}
	for time.Since(p.started) < readyDeadline {
		select {
		case <-p.exited:
			return 0, fmt.Errorf("%s exited before becoming ready\n%s", p.name, p.logTail(20))
		default:
		}
		if resp, err := c.Get(p.url + path); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK && (ok == nil || ok()) {
				return time.Since(p.started), nil
			}
		}
		time.Sleep(pollInterval)
	}
	return 0, fmt.Errorf("%s not ready after %s\n%s", p.name, readyDeadline, p.logTail(20))
}

// logTail returns the last n lines of the child's output.
func (p *proc) logTail(n int) string {
	raw, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return "--- " + p.name + " log tail ---\n" + strings.Join(lines, "\n")
}

// procStat is what /proc/<pid> says about a child: CPU time consumed
// and the peak resident set.
type procStat struct {
	cpu    time.Duration // utime + stime
	peakMB float64       // VmHWM
}

func (p *proc) stat() (procStat, error) {
	var st procStat
	pid := strconv.Itoa(p.cmd.Process.Pid)
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100 Hz on Linux).
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return st, errors.New("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	stt, _ := strconv.ParseInt(f[12], 10, 64)
	st.cpu = time.Duration(ut+stt) * (time.Second / 100)
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			st.peakMB = kb / 1024
		}
	}
	return st, nil
}

// onSignal runs cleanup and exits when the benchmark is interrupted;
// the returned stop releases the handler.
func onSignal(cleanup func()) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
