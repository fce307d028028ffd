// Package testmain is the TestMain of every package that starts a
// goroutine or takes a ranked lock:
//
//	func TestMain(m *testing.M) { testmain.Run(m) }
//
// It turns lock-rank checking on (internal/lockrank) for the whole test
// binary, runs the tests, and then fails the binary if goroutines the
// tests started are still running: the goroutine count must come back to
// what it was before the first test within a deadline. Idle keep-alive
// connections of the default transport are closed before each count; any
// other goroutine left running, a transport's included, is a leak and is
// reported with every stack. A binary run with -test.fuzz is not counted:
// the fuzzing engine's signal handler (os/signal's loop) runs to the end of
// the process.
package testmain

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"dwcomplement/internal/lockrank"
)

// settleWithin bounds how long goroutines the tests stopped may take to
// return (a server's connection goroutines, a canceled poller's sleep).
const settleWithin = 5 * time.Second

// Run runs m's tests, with ranks checked where checkRanks says so, and
// exits the process: with the tests' code, or 1 if they passed but left
// goroutines running.
func Run(m *testing.M) {
	flag.Parse()
	if checkRanks() {
		lockrank.Enable()
	}
	before := runtime.NumGoroutine()
	code := m.Run()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if code == 0 && !fuzzing && !settled(before, settleWithin) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "testmain: goroutines still running %v after the tests, %d before them:\n\n%s\n", settleWithin, before, buf)
		code = 1
	}
	os.Exit(code)
}

// checkRanks reports whether this test binary checks lock ranks: not when
// asked to run benchmarks, which measure the production path, nor under
// -race. The check's bookkeeping, one map under one mutex, is shared by
// every goroutine: the race detector would take it for synchronization
// between any goroutine that unlocks a ranked lock and any that later
// locks one, and miss the races across it.
func checkRanks() bool {
	bi, ok := debug.ReadBuildInfo()
	race := ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
	return !race && flag.Lookup("test.bench").Value.String() == ""
}

// settled reports whether the goroutine count comes back to before within
// d, closing the default transport's idle connections before each count.
func settled(before int, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
