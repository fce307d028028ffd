package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"math/rand"
)

// HTTPFaultConfig sets the misbehaviour probabilities of a
// FaultyTransport. All probabilities
// are in [0, 1] and at most one fault fires per request, rolled in the
// order drop → lose-response → 5xx → delay → partial-body.
type HTTPFaultConfig struct {
	// Drop is the probability the request never reaches the server:
	// the round trip fails with a transport error.
	Drop float64
	// LoseResponse is the probability the request reaches the server
	// but its response is lost in transit. The server-side effect (if
	// any) has happened — this is what makes retried requests arrive
	// at-least-once and exercises sequence-number deduplication.
	LoseResponse float64
	// Err5xx is the probability an intermediary answers 503 without
	// the request reaching the server.
	Err5xx float64
	// Delay is the probability the response is held back for a random
	// duration up to MaxDelay before delivery (a slow link; combined
	// with per-attempt deadlines it surfaces as timeouts).
	Delay float64
	// MaxDelay bounds injected delays; 0 defaults to 20ms.
	MaxDelay time.Duration
	// PartialBody is the probability the response arrives with its
	// body truncated mid-stream (connection cut during transfer).
	PartialBody float64
}

// HTTPFaultStats counts what a FaultyTransport did to its traffic.
type HTTPFaultStats struct {
	Requests      int // round trips attempted through the transport
	Dropped       int
	LostResponses int
	Injected5xx   int
	Delayed       int
	Truncated     int
}

// httpFate is one request's rolled outcome.
type httpFate int

const (
	fateDeliver httpFate = iota
	fateDrop
	fateLoseResponse
	fate5xx
	fateDelay
	fatePartialBody
)

// FaultyTransport is a seedable http.RoundTripper that injects network
// faults between an HTTP client and a real server: dropped requests,
// lost responses, injected 503s, delays, and truncated bodies. It is
// the wire between a remote source and the integrator's client in the
// network soak tests; given the same seed and request sequence it
// produces the same fault schedule.
type FaultyTransport struct {
	mu       sync.Mutex
	rng      *rand.Rand
	cfg      HTTPFaultConfig
	next     http.RoundTripper
	stats    HTTPFaultStats
	disabled bool
}

// NewFaultyTransport wraps next (nil = http.DefaultTransport) with the
// given seed and fault configuration.
func NewFaultyTransport(seed int64, cfg HTTPFaultConfig, next http.RoundTripper) *FaultyTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	return &FaultyTransport{rng: rand.New(rand.NewSource(seed)), cfg: cfg, next: next}
}

// SetEnabled turns fault injection on or off; while off, requests pass
// straight through. Soak tests disable faults before the settle loop.
func (t *FaultyTransport) SetEnabled(on bool) {
	t.mu.Lock()
	t.disabled = !on
	t.mu.Unlock()
}

// SetConfig swaps the fault configuration (e.g. to force a total outage
// for a breaker-open phase). The seeded schedule continues.
func (t *FaultyTransport) SetConfig(cfg HTTPFaultConfig) {
	t.mu.Lock()
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	t.cfg = cfg
	t.mu.Unlock()
}

// Stats returns the transport's fault counters.
func (t *FaultyTransport) Stats() HTTPFaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// roll decides one request's fate (and delay) under the lock, so the
// schedule is a deterministic function of the seed and request order.
func (t *FaultyTransport) roll() (httpFate, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.disabled {
		return fateDeliver, 0
	}
	t.stats.Requests++
	switch {
	case t.rng.Float64() < t.cfg.Drop:
		t.stats.Dropped++
		return fateDrop, 0
	case t.rng.Float64() < t.cfg.LoseResponse:
		t.stats.LostResponses++
		return fateLoseResponse, 0
	case t.rng.Float64() < t.cfg.Err5xx:
		t.stats.Injected5xx++
		return fate5xx, 0
	case t.rng.Float64() < t.cfg.Delay:
		t.stats.Delayed++
		return fateDelay, time.Duration(t.rng.Int63n(int64(t.cfg.MaxDelay)))
	case t.rng.Float64() < t.cfg.PartialBody:
		t.stats.Truncated++
		return fatePartialBody, 0
	default:
		return fateDeliver, 0
	}
}

// RoundTrip implements http.RoundTripper with the rolled fault applied.
func (t *FaultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	fate, delay := t.roll()
	switch fate {
	case fateDrop:
		return nil, fmt.Errorf("chaos: connection dropped")
	case fateLoseResponse:
		resp, err := t.next.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, fmt.Errorf("chaos: response lost in transit")
	case fate5xx:
		const body = "chaos: injected 503"
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        make(http.Header),
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case fateDelay:
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
		return t.next.RoundTrip(req)
	case fatePartialBody:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = &truncatedBody{data: data[:len(data)/2]}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	default:
		return t.next.RoundTrip(req)
	}
}

// truncatedBody yields a prefix of the real body, then fails the way a
// cut connection does — with an unexpected EOF, not a clean one.
type truncatedBody struct {
	data []byte
	off  int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *truncatedBody) Close() error { return nil }
