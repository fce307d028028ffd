// Command dwsource runs one autonomous source database as an HTTP
// service — the source side of Figure 1 with its reporting channel on
// the wire. It owns a subset of the schema's relations, applies local
// transactions POSTed to /apply, and serves the resulting change
// reports to polling integrators (dwserve -source, or any
// remote.Client):
//
//	dwsource -spec warehouse.dw -name sales -owns Sale [-addr :9101]
//	         [-unsealed] [-retain 65536] [-trace-sample 0.01]
//
// Endpoints:
//
//	POST /apply             apply update ops (insert R(...)/delete R(...))
//	GET  /reports?from=N    change reports with seq ≥ N (&wait=ms long-polls)
//	GET  /resend?from=N     immediate re-delivery for gap resync
//	GET  /healthz           source name, latest seq, retained reports
//
// The source is sealed by default: there is deliberately no query
// endpoint, so an integrator consuming this server can never issue the
// dashed-arrow ad-hoc queries the paper's update independence forbids.
// All relations named in -owns must exist in the spec; updates touching
// foreign relations are refused.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/source"
	"dwcomplement/internal/trace"
)

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// sourceHandlerConfig shapes newSourceHandler. Zero fields take the
// documented defaults: 1 MiB bodies, a default admission controller.
type sourceHandlerConfig struct {
	MaxBody   int64 // largest accepted /apply body (default 1 MiB)
	Admission admission.Config
}

// applyStatus maps a failed /apply to its HTTP status and whether the
// response should carry Retry-After: an admission shed is 429 and worth
// retrying; an oversized body is 413; anything else is the 422 a
// malformed or foreign transaction deserves.
func applyStatus(err error) (status int, retryAfter bool) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, admission.ErrShed):
		return http.StatusTooManyRequests, true
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, false
	}
	return http.StatusUnprocessableEntity, false
}

// newSourceHandler mounts the wire reporting channel plus the local
// transaction endpoint. Split out of main for tests.
func newSourceHandler(src *source.Source, db *catalog.Database, cfg sourceHandlerConfig) (http.Handler, *remote.SourceServer) {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	adm := admission.New(cfg.Admission)
	srv := remote.NewSourceServer(src)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /apply", func(w http.ResponseWriter, r *http.Request) {
		// Local transactions are Delivery class: they feed the reporting
		// channel, so they outrank any diagnostics but still shed (429 +
		// Retry-After, the transaction never applied) when the source is
		// saturated — the submitting application owns the retry.
		release, aerr := adm.Acquire(r.Context(), admission.Delivery, 1)
		if aerr != nil {
			status, retry := applyStatus(aerr)
			if retry {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, status, map[string]string{"error": aerr.Error()})
			return
		}
		defer release()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cfg.MaxBody))
		if err != nil {
			status, _ := applyStatus(err)
			if status == http.StatusUnprocessableEntity {
				status = http.StatusBadRequest // short read, not a parsed-but-refused transaction
			}
			writeJSON(w, status, map[string]string{"error": err.Error()})
			return
		}
		u, err := dwc.ParseUpdateOps(db, string(body))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		// A caller already tracing its own work (a load generator, a CI
		// driver) hands its trace over the standard header; the apply
		// span — and the report's whole downstream lineage — joins it.
		ctx := r.Context()
		if tp := r.Header.Get("traceparent"); tp != "" {
			ctx = trace.ContextWithRemote(ctx, tp)
		}
		seq, err := src.ApplyContext(ctx, u)
		if err != nil {
			status, retry := applyStatus(err)
			if retry {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, status, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"seq": seq, "changes": u.Size()})
	})
	return mux, srv
}

func main() {
	fs := flag.NewFlagSet("dwsource", flag.ExitOnError)
	specPath := fs.String("spec", "", "path to the .dw specification defining the schema (required)")
	name := fs.String("name", "", "source name, as reported to integrators (required)")
	owns := fs.String("owns", "", "comma-separated relations this source owns (required)")
	addr := fs.String("addr", ":9101", "listen address")
	unsealed := fs.Bool("unsealed", false, "permit in-process ad-hoc queries (the wire never exposes them)")
	retain := fs.Int("retain", source.DefaultRetain, "max reports retained for resync (oldest trimmed past the cap; at least 1)")
	traceSample := fs.Float64("trace-sample", 0.01, "probability of tracing a transaction's report lineage (0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "graceful shutdown deadline")
	maxBody := fs.Int64("max-body", 1<<20, "largest accepted /apply body in bytes (413 beyond)")
	maxInflight := fs.Int("max-inflight", 64, "concurrent /apply transactions admitted before queueing/shedding")
	_ = fs.Parse(os.Args[1:])

	if *specPath == "" || *name == "" || *owns == "" {
		fmt.Fprintln(os.Stderr, "dwsource: -spec, -name and -owns are required")
		fs.Usage()
		os.Exit(2)
	}
	if *retain < 1 {
		fmt.Fprintln(os.Stderr, "dwsource: -retain must be at least 1: every report log has a cap")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwsource:", err)
		os.Exit(1)
	}
	// A source serves the schema, not the spec's initial data: no load
	// statement is followed, and a statement the parser dropped is fatal.
	ds, err := dwc.ParseSpecDefs(string(raw), filepath.Dir(*specPath))
	if err == nil && len(ds.Issues) > 0 {
		err = ds.Issues[0]
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwsource:", err)
		os.Exit(1)
	}
	spec := ds.Spec
	var rels []string
	for _, r := range strings.Split(*owns, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rels = append(rels, r)
		}
	}
	src, err := source.NewSource(*name, spec.DB, !*unsealed, rels...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwsource:", err)
		os.Exit(1)
	}
	// Sampled transactions stamp a traceparent onto their reports, so the
	// warehouse can continue the trace across the reporting channel.
	src.SetTracer(trace.New(trace.Config{Rate: *traceSample}))
	src.SetRetain(*retain)

	fmt.Printf("dwsource: source %q owns %s (sealed=%v, retain=%d)\nlistening on %s\n",
		*name, strings.Join(rels, ", "), !*unsealed, *retain, *addr)
	handler, _ := newSourceHandler(src, spec.DB, sourceHandlerConfig{
		MaxBody:   *maxBody,
		Admission: admission.Config{Capacity: *maxInflight},
	})
	// Slowloris hardening, mirroring dwserve: bound the header read,
	// idle keep-alives and header size.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dwsource:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "dwsource: drain:", err)
	}
	fmt.Printf("dwsource: shutdown complete, seq %d\n", src.Seq())
}
