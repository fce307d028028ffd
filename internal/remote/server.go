package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dwcomplement/internal/retain"
	"dwcomplement/internal/source"
)

// maxLongPoll caps how long one /reports request may be held open.
const maxLongPoll = 30 * time.Second

// maxBatch bounds one response's report count; a client that is far
// behind pages through the backlog with successive requests.
const maxBatch = 256

// SourceServer exposes one autonomous source's reporting channel over
// HTTP — the wire form of Figure 1's solid arrow. It holds no state of
// its own: it serves the source's retained report log to polling
// integrator clients:
//
//	GET /healthz            source name, latest seq, retained reports
//	GET /reports?from=N     reports with Seq ≥ N; &wait=ms long-polls
//	GET /resend?from=N      immediate re-delivery for gap resync
//
// The server never exposes a query endpoint: a sealed source stays
// sealed across the network boundary by construction.
type SourceServer struct {
	src *source.Source
}

// NewSourceServer wraps src. Its reports then reach integrators over
// the wire only: the source's in-process callback is cleared.
func NewSourceServer(src *source.Source) *SourceServer {
	src.OnUpdate(nil)
	return &SourceServer{src: src}
}

// Handler returns the HTTP routing table.
func (s *SourceServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /reports", s.handleReports)
	mux.HandleFunc("GET /resend", s.handleResend)
	return mux
}

func (s *SourceServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthBody{
		Source:   s.src.Name(),
		Seq:      s.src.Seq(),
		Retained: s.src.Reports().Len(),
		Sealed:   s.src.Sealed(),
	})
}

// handleReports serves reports with Seq ≥ from. With wait > 0 and no
// such report retained yet, the request blocks until one arrives, the
// wait elapses, or the client goes away — the long-poll that gives the
// pull-based wire push-like report latency.
func (s *SourceServer) handleReports(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, true)
}

// handleResend serves the resync path: an immediate batch from the
// retained log.
func (s *SourceServer) handleResend(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, false)
}

// serve answers one read of the log: a from below the retained log
// answers 410 Gone (silently serving only the later suffix would leave
// a behind client rewinding on the gap forever), a from past the tip
// an empty batch.
func (s *SourceServer) serve(w http.ResponseWriter, r *http.Request, poll bool) {
	from, wait, err := PollParams(r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	log := s.src.Reports()
	if poll && wait > 0 {
		log.Wait(r.Context(), from, wait)
	}
	reports, tip, err := log.From(from, maxBatch)
	if errors.Is(err, retain.ErrTrimmed) {
		verb := "resend"
		if poll {
			verb = "serve reports"
		}
		writeJSONError(w, http.StatusGone,
			fmt.Errorf("remote: %s cannot %s from seq %d: history trimmed", s.src.Name(), verb, from))
		return
	}
	batch := make([]WireNotification, len(reports))
	for i, n := range reports {
		batch[i] = ToWire(n)
	}
	writeJSON(w, http.StatusOK, ReportBatch{Source: s.src.Name(), Seq: tip, Reports: batch})
}

// PollParams parses the two parameters of a long-polled log read —
// /reports here, dwserve's /replica/stream — from, the first position
// wanted (at least 1, the default), and wait, the long poll in
// milliseconds (default 0), capped at 30 s.
func PollParams(r *http.Request) (from uint64, wait time.Duration, err error) {
	q := r.URL.Query()
	if raw := q.Get("from"); raw != "" {
		if from, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("remote: bad from parameter %q", raw)
		}
	}
	from = max(from, 1)
	if raw := q.Get("wait"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			return 0, 0, fmt.Errorf("remote: bad wait parameter %q", raw)
		}
		wait = min(time.Duration(ms)*time.Millisecond, maxLongPoll)
	}
	return from, wait, nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
