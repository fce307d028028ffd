package main

// Overload protection for the HTTP API: every route is classified
// (health > delivery > queries > traces) and passes the admission
// controller before its handler runs; under sustained pressure the
// degradation ladder sheds the cheapest work first. Shed responses are
// 429 + Retry-After and cost microseconds — the server stays in control
// of its own concurrency instead of queueing to death, and report
// delivery plus the readiness probe keep working at every rung.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
)

// deliveryWeight is the admission weight of one warehouse refresh
// (HTTP update or remote report): a refresh holds the writer lock and
// touches every affected view, so it counts as more than a point read.
const deliveryWeight = 2

// wantsStale reports whether the caller tolerates a cached answer under
// degradation: the stale=1 query parameter or the X-DW-Allow-Stale
// header opt in.
func wantsStale(req *http.Request) bool {
	return req.URL.Query().Get("stale") == "1" || req.Header.Get("X-DW-Allow-Stale") != ""
}

// writeShed answers a shed request: 429, Retry-After, and the class on
// record. The body stays tiny — a shed response must cost microseconds.
func (s *server) writeShed(w http.ResponseWriter, cl admission.Class, reason string) {
	s.mShed[cl].Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, map[string]string{
		"error": reason,
		"class": cl.String(),
	})
}

// admitted wraps a route's handler with admission control and the
// degradation ladder. Health routes bypass the limiter; trace routes
// shed from LevelNoTrace; query routes shed from LevelShedQueries
// unless the caller tolerates a cached stale answer.
func (s *server) admitted(rt routeDef) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		level := s.adm.Level()
		switch {
		case rt.class == admission.Trace && level >= admission.LevelNoTrace:
			s.writeShed(w, rt.class, "diagnostics shed under load (ladder level "+level.String()+")")
			return
		case rt.pattern == "GET /query" && level >= admission.LevelStale && wantsStale(req):
			// Stale-tolerant queries are answered from the cache without
			// consuming an eval slot; a miss falls through to a fresh eval
			// while the ladder still admits queries, and sheds on the last
			// rung.
			if s.serveCached(w, req) {
				return
			}
			if level >= admission.LevelShedQueries {
				s.writeShed(w, rt.class, "no cached answer under shed-queries degradation")
				return
			}
		case rt.class == admission.Query && level >= admission.LevelShedQueries:
			s.writeShed(w, rt.class, "queries shed under sustained overload (ladder level "+level.String()+")")
			return
		}
		release, err := s.adm.Acquire(req.Context(), rt.class, rt.weight)
		if err != nil {
			if errors.Is(err, admission.ErrShed) {
				s.writeShed(w, rt.class, err.Error())
				return
			}
			// The caller gave up while queued.
			writeError(w, statusClientClosedRequest, err)
			return
		}
		defer release()
		rt.handler(w, req)
	}
}

// evalStatus maps an evaluation or refresh error to its HTTP status and
// whether the response should carry Retry-After. The client closing the
// request is 499; the server running out of time or budget is 503 —
// with Retry-After only for deadline pressure, since a budget violation
// will not succeed on retry.
func evalStatus(err error) (status int, retryAfter bool) {
	switch {
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, false
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, true
	case errors.Is(err, dwc.ErrBudgetExceeded):
		return http.StatusServiceUnavailable, false
	}
	return http.StatusInternalServerError, false
}

// writeEvalError answers a failed evaluation with the evalStatus
// mapping applied.
func writeEvalError(w http.ResponseWriter, err error) {
	status, retry := evalStatus(err)
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, err)
}

// queryContext derives the evaluation context of one query request:
// the -query-timeout deadline plus the -query-budget row budget. The
// returned cancel must be called when the evaluation finishes.
func (s *server) queryContext(req *http.Request) (context.Context, context.CancelFunc) {
	ctx := req.Context()
	cancel := context.CancelFunc(func() {})
	if s.cfg.QueryTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
	}
	if s.cfg.QueryBudget > 0 {
		ctx = dwc.WithBudget(ctx, dwc.Budget{Scanned: s.cfg.QueryBudget, Emitted: s.cfg.QueryBudget})
	}
	return ctx, cancel
}

// serveCached answers a query with the last fresh answer the query cache
// holds for its text (answer.go). Computed from the published state, it is
// a reuse like any other; from an earlier one, the response is marked
// X-DW-Staleness: cache=<seconds> and stamped with the X-DW-Version the
// answer was computed at. Reports whether a cached answer was served.
func (s *server) serveCached(w http.ResponseWriter, req *http.Request) bool {
	start := time.Now()
	e, _ := s.qcache.get(req.URL.Query().Get("q"))
	if e.body == nil {
		return false
	}
	v := s.cur.Load()
	if e.gen == v.gen {
		s.stamp(w, v)
		s.writeReused(w, req, e.body, start, "reused")
		return true
	}
	s.mStale.Inc()
	hdr := "cache=" + strconv.FormatFloat(time.Since(e.at).Seconds(), 'f', 3, 64)
	if rest := s.stalenessHeader(v); rest != "" {
		hdr += ", " + rest
	}
	w.Header().Set("X-DW-Staleness", hdr)
	w.Header().Set("X-DW-Version", e.version)
	writeBody(w, http.StatusOK, e.body)
	return true
}
