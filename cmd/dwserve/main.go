// Command dwserve runs an independent warehouse as an HTTP service: it
// materializes the warehouse (views + complement) from a .dw spec or a
// snapshot, answers arbitrary source queries through the Theorem 3.1
// translation, and applies reported source updates with warehouse-only
// incremental maintenance — the deployment shape of Figure 1 with the
// integrator exposed over HTTP.
//
// Usage:
//
//	dwserve -spec warehouse.dw [-addr :8080] [-prop22] [-force]
//	        [-snapshot-dir dir] [-checkpoint-every 64]
//	        [-log-level info] [-log-json] [-debug :6060]
//
// On startup the spec is parsed once and statically verified (the dwctl
// vet checks: view well-formedness, IND acyclicity, cover analysis)
// before any data is read; a config with error-severity findings is
// refused unless -force is given. Its load statements (relative to the
// spec file's directory) are read only by a first boot: with a checkpoint
// in -snapshot-dir, or with -follow, no source file is opened.
//
// With -snapshot-dir, every update is journaled (fsync) before it is
// acknowledged and checkpointed in the background, so a restarted server
// resumes exactly where it stopped — without ever contacting a source.
//
// Observability: GET /metrics serves Prometheus text exposition (request,
// query and refresh counters plus latency histograms), every request is
// logged with a request ID, and -debug exposes net/http/pprof on a
// separate listener that should never be public. Tracing: requests and
// remote reports are sampled at -trace-sample into an in-process ring
// buffer served by GET /traces and GET /traces/{id}; sampled requests
// echo their trace ID on X-DW-Trace, and inbound `traceparent` headers
// join the caller's trace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/remote"
)

// processStart is where the boot ledger counts from.
var processStart = time.Now()

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

func main() {
	fs := flag.NewFlagSet("dwserve", flag.ExitOnError)
	specPath := fs.String("spec", "", "path to the .dw warehouse specification (required); its load paths resolve against this file's directory and are read only by a first boot")
	addr := fs.String("addr", ":8080", "listen address")
	prop22 := fs.Bool("prop22", false, "ignore integrity constraints (Proposition 2.2)")
	force := fs.Bool("force", false, "serve even if static verification reports errors")
	snapshotDir := fs.String("snapshot-dir", "", "directory for marked checkpoint snapshots (enables crash recovery; a checkpoint found here is booted from, and no source is read)")
	journalPath := fs.String("journal", "", "redo journal path (default <snapshot-dir>/wal.dwj when -snapshot-dir is set)")
	checkpointEvery := fs.Int("checkpoint-every", 64, "acknowledged updates between checkpoint snapshots")
	traceSample := fs.Float64("trace-sample", 0.01, "probability of tracing a request or report end to end (0 disables)")
	traceBuffer := fs.Int("trace-buffer", 4096, "finished spans retained in the in-process trace buffer")
	queryTimeout := fs.Duration("query-timeout", 30*time.Second, "per-query evaluation deadline (0 disables)")
	queryBudget := fs.Int64("query-budget", 0, "per-query row budget: max rows scanned or emitted by one evaluation (0 disables)")
	maxInflight := fs.Int("max-inflight", 64, "weighted concurrent requests admitted before queueing/shedding")
	maxBody := fs.Int64("max-body", 1<<20, "largest accepted request body in bytes (413 beyond)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	logLevel := fs.String("log-level", "info", "request log level (debug|info|warn|error)")
	logJSON := fs.Bool("log-json", false, "emit JSON log records instead of text")
	debugAddr := fs.String("debug", "", "serve net/http/pprof on this address (off when empty; keep private)")
	var remoteSources []string
	fs.Func("source", "attach a remote dwsource as name=http://host:port (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=url, got %q", v)
		}
		remoteSources = append(remoteSources, v)
		return nil
	})
	follow := fs.String("follow", "", "run as a read-only replica streaming from this leader URL (mutually exclusive with -source); reads no source: without a local checkpoint it answers 503 until the leader's snapshot is installed")
	replicaRetain := fs.Int("replica-retain", 1024, "journal records retained in memory for follower streaming")
	_ = fs.Parse(os.Args[1:])

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "dwserve: -spec is required")
		fs.Usage()
		os.Exit(2)
	}
	if *follow != "" && len(remoteSources) > 0 {
		// A follower's only input is the leader's stream — the leader owns
		// all source attachment and maintenance.
		fmt.Fprintln(os.Stderr, "dwserve: -follow and -source are mutually exclusive (the leader owns the sources)")
		os.Exit(2)
	}
	boot := newBootLedger(processStart)
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwserve:", err)
		os.Exit(1)
	}
	opts := dwc.Theorem22()
	if *prop22 {
		opts = dwc.Proposition22()
	}
	// The one parse of this process: definitions only, load paths anchored
	// at the spec file's directory; newServer loads them if it must.
	ds, err := dwc.ParseSpecDefs(string(raw), filepath.Dir(*specPath))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwserve:", err)
		os.Exit(1)
	}
	boot.mark("parse")

	// Startup gate: statically verify the config before reading or
	// materializing anything. Anything vet grades as an error (cyclic
	// INDs, ill-formed views, type-incompatible joins) would serve wrong
	// answers silently, so refuse unless the operator explicitly forces it.
	diags := dwc.VetSpec(ds, opts)
	for _, d := range diags {
		if d.Severity != dwc.VetInfo {
			fmt.Fprintf(os.Stderr, "dwserve: vet: %s\n", d)
		}
	}
	if dwc.VetHasErrors(diags) {
		if !*force {
			fmt.Fprintln(os.Stderr, "dwserve: refusing to serve an unsound config (see `dwctl vet`); use -force to override")
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "dwserve: -force given, serving despite vet errors")
	}
	boot.mark("vet")
	if len(ds.Issues) > 0 { // -force overrides vet, not a statement the parser dropped
		fmt.Fprintln(os.Stderr, "dwserve:", ds.Issues[0])
		os.Exit(1)
	}
	spec := ds.Spec
	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwserve:", err)
		os.Exit(2)
	}
	srv, err := newServer(spec, opts, serverConfig{
		SnapshotDir:     *snapshotDir,
		JournalPath:     *journalPath,
		CheckpointEvery: *checkpointEvery,
		TraceSample:     *traceSample,
		TraceBuffer:     *traceBuffer,
		QueryTimeout:    *queryTimeout,
		QueryBudget:     *queryBudget,
		MaxBody:         *maxBody,
		Admission:       admission.Config{Capacity: *maxInflight},
		ReplicaRetain:   *replicaRetain,
		Follower:        *follow != "",
		Boot:            boot,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwserve:", err)
		os.Exit(1)
	}
	srv.log = obs.NewLogger(os.Stderr, level, *logJSON)
	for _, rs := range remoteSources {
		name, url, _ := strings.Cut(rs, "=")
		// Distinct jitter seed per client: with a shared schedule the
		// backoff timing would synchronize across sources under
		// correlated faults, defeating the jitter.
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		srv.AttachRemote(remote.NewClient(name, url, spec.DB, remote.Config{Seed: int64(h.Sum64())}))
	}
	if srv.replayed > 0 {
		srv.log.Info("journal replayed", "records", srv.replayed, "seq", srv.cur.Load().marks[httpSource])
	}
	if srv.withdrawnTail != nil {
		srv.log.Warn("journal tail withdrawn at boot", "err", srv.withdrawnTail)
	}
	if srv.wedgedErr != nil {
		srv.log.Error("journal replay wedged; serving stale (see /readyz)", "err", srv.wedgedErr)
	}
	if srv.mstatsErr != nil {
		srv.log.Warn("unreadable file ignored; starting with fresh estimates", "err", srv.mstatsErr)
	}
	// The pprof listener is a server value so the shutdown path below
	// can close it; a bare http.ListenAndServe goroutine could never be
	// stopped.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			srv.log.Info("pprof listener up", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				srv.log.Error("pprof listener failed", "err", err)
			}
		}()
	}
	fmt.Printf("dwserve: %d relation(s), %d view(s), %d stored complement(s)\n",
		len(spec.DB.Names()), spec.Views.Len(), len(srv.comp.StoredEntries()))
	fmt.Printf("listening on %s\n%s\n", *addr, srv.describeRoutes())

	// Serve until SIGINT/SIGTERM, then shut down gracefully: stop
	// admitting (readyz goes 503), drain in-flight requests up to the
	// deadline, write a final checkpoint, close the journal.
	// Slowloris hardening: bound the header read, idle keep-alives and
	// header size — a client trickling bytes must not pin a connection
	// (and its goroutine) forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *follow != "" {
		srv.StartFollower(ctx, *follow)
		srv.log.Info("following", "leader", *follow)
	} else {
		srv.startRemotes(ctx)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwserve:", err)
		os.Exit(1)
	}
	boot.mark("listen")
	st := boot.stats()
	srv.log.Info("boot", "phases", st.Phases, "total", time.Duration(st.TotalNs), "rowsLoaded", st.RowsLoaded, "bytesRead", st.BytesRead)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dwserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	srv.log.Info("shutdown: draining", "timeout", *drainTimeout)
	srv.beginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "dwserve: drain:", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	if err := srv.shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "dwserve: final checkpoint:", err)
		os.Exit(1)
	}
	srv.log.Info("shutdown complete", "seq", srv.cur.Load().marks[httpSource])
}
