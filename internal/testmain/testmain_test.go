package testmain

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestSettledWaitsForGoroutines: a goroutine blocked on a channel keeps
// the count above its baseline; once it returns, the count settles.
func TestSettledWaitsForGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	stop := make(chan struct{})
	go func() { <-stop }()
	if settled(before, 50*time.Millisecond) {
		t.Fatal("settled while a goroutine is blocked on a channel")
	}
	close(stop)
	if !settled(before, 5*time.Second) {
		t.Fatal("not settled after the goroutine returned")
	}
}

// TestIdleConnectionIsNoLeak: a keep-alive connection of the default
// transport, idle once its response is read, holds goroutines at both
// ends; settled closes it rather than counting them.
func TestIdleConnectionIsNoLeak(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") }))
	defer ts.Close()
	before := runtime.NumGoroutine()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("%d goroutines with an idle connection open, %d before it: nothing to close", n, before)
	}
	if !settled(before, 5*time.Second) {
		t.Fatal("an idle keep-alive connection counted as a leak")
	}
}
