package obs

import (
	"net/http"
	"net/http/pprof"
)

// StatusRecorder wraps a ResponseWriter to capture the response status
// and body size for access logging and status-labeled metrics. Err is the
// handler's to set when it failed to produce or deliver the body it
// announced, so the access log can say so.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
	Bytes  int64
	Err    error
}

// NewStatusRecorder wraps w; the status defaults to 200 (the value the
// net/http stack reports when the handler never calls WriteHeader).
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
}

// WriteHeader records the status code.
func (r *StatusRecorder) WriteHeader(code int) {
	r.Status = code
	r.ResponseWriter.WriteHeader(code)
}

// Write counts the response bytes.
func (r *StatusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.Bytes += int64(n)
	return n, err
}

// Unwrap returns the wrapped writer, so http.NewResponseController reaches
// its Flush.
func (r *StatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// MetricsHandler serves the registry in Prometheus text exposition
// format — mount it as GET /metrics.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

// DebugMux returns a mux exposing net/http/pprof (CPU, heap, goroutine,
// block profiles and execution traces) under /debug/pprof/. Serve it on
// a separate, non-public listener: profiling endpoints are opt-in and
// never belong on the query port.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
