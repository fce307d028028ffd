package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/admission"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/parse"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/replica"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/trace"
	"dwcomplement/internal/warehouse"
)

// statusClientClosedRequest is the nginx-style status reported when the
// client goes away (or its deadline passes) before the handler finishes.
const statusClientClosedRequest = 499

// refreshSummary is the /stats view of the most recent refresh: its
// per-target spans and how its pre-state reads were answered.
type refreshSummary struct {
	Spans               []dwc.RefreshSpan `json:"spans"`
	Changed             map[string]int    `json:"changed"`
	RestrictedLookups   int64             `json:"restrictedLookups"`
	FullReconstructions int64             `json:"fullReconstructions"`
	CopiedBytes         int64             `json:"copiedBytes"`
	WallNs              int64             `json:"wallNs"`
}

// serverConfig configures the server. SnapshotDir+JournalPath is the
// durability regime: marked snapshots plus a fsync'd redo journal with
// periodic checkpoint compaction; without them the server is volatile.
type serverConfig struct {
	SnapshotDir     string // directory for marked checkpoint snapshots
	JournalPath     string // redo journal ("" with SnapshotDir: <dir>/wal.dwj)
	CheckpointEvery int    // updates between checkpoints (default 64)

	TraceSample float64 // root-span sampling probability in [0, 1]
	TraceBuffer int     // span ring-buffer capacity (default 4096)

	// Overload protection. QueryTimeout bounds one query evaluation's
	// wall time (0 = no deadline); QueryBudget bounds its scanned and
	// emitted rows (0 = no budget); MaxBody caps request bodies
	// (default 1 MiB); Admission shapes the admission controller (zero
	// value = defaults: capacity 64, bounded queues, 250ms queue
	// timeout).
	QueryTimeout time.Duration
	QueryBudget  int64
	MaxBody      int64
	Admission    admission.Config

	// ReplicaRetain bounds the in-memory replication log served to
	// followers (default 1024 records); a follower further behind than
	// the retained window re-bootstraps from a shipped checkpoint.
	ReplicaRetain int

	// Follower (-follow): with no local checkpoint the server boots without
	// a state and the leader's shipped snapshot is its first.
	Follower bool
	// Boot is the ledger main started at process start (nil: at newServer).
	Boot *bootLedger
}

// httpSource names the single logical update source of the HTTP API in
// journal records and snapshot watermarks.
const httpSource = "http"

// server wraps a materialized warehouse behind an HTTP API. All state
// mutations flow through the incremental maintainer; queries are
// translated and answered warehouse-only — the server never holds a
// connection to any source, which is exactly the deployment the paper
// argues for.
type server struct {
	// The definitions are all the server keeps of its spec: the state it
	// was initialized from is garbage once newServer returns.
	db       *dwc.Database
	views    *dwc.ViewSet
	comp     *dwc.Complement
	maintain *dwc.Maintainer
	cfg      serverConfig
	boot     *bootLedger

	// snapshotLoaded: a warehouse state is materialized — at boot, or, on a
	// follower that booted without a checkpoint, by its first bootstrap.
	snapshotLoaded atomic.Bool

	// Startup-only facts, written before the listener starts: readiness
	// inputs for /readyz.
	journalOK     bool  // the journal replayed without failures
	replayed      int   // journal records applied at startup
	wedgedErr     error // first replay refresh failure, if any
	withdrawnTail error // the journal's last record, withdrawn because it failed on replay

	// cur is the published version: the one thing readers see. Every read
	// route, gauge and the checkpointer Load it and work on what they got,
	// taking no server lock; only a writer holding mu Stores the next one.
	cur atomic.Pointer[version]

	// mu orders the writers — update, remote report, follower apply,
	// promote, repoint, bootstrap, a checkpoint's bookkeeping — and guards
	// what only they touch. w is the writer's warehouse: ahead of the
	// published version only inside a commit, between refresh and journal
	// append.
	mu         lockrank.Mutex[lockrank.Server]
	w          *dwc.Warehouse
	sinceCkpt  int // acknowledged updates no checkpoint covers yet
	jw         *journal.Writer
	ckptFailed bool                    // the last checkpoint failed; degraded until one succeeds
	mChanges   map[string]*obs.Counter // dw_refresh_changes_total by relation

	// Replication (internal/replica). rlog is the retained replication log
	// streamed to followers; followCtx is the parent context repoints
	// restart the follower loop under.
	rlog      *replica.Log
	followCtx context.Context
	// followTransport, when set before StartFollower, is installed on
	// every stream client the follower builds — the chaos tests inject
	// fault and partition transports here.
	followTransport http.RoundTripper

	// lagBaseNano is the last instant this follower was fully caught up
	// with a healthy leader; the replica-lag gauge reports its age.
	lagBaseNano atomic.Int64

	log *slog.Logger
	reg *obs.Registry

	// Tracing and planner-facing maintenance statistics. The tracer is
	// always non-nil (rate 0 just never samples fresh roots — sampled
	// remote parents are still honored); mstats lives in memory only and
	// starts fresh on every boot.
	tracer *trace.Tracer
	mstats *trace.MaintStats

	// Degradation state, atomic because handlers read and the writers
	// write.
	degraded     atomic.Bool  // last refresh or persistence attempt failed
	lastGoodNano atomic.Int64 // unix nanos of the last successful refresh
	draining     atomic.Bool  // graceful shutdown in progress

	// Cumulative query counters, reported by GET /stats: the one thing
	// readers write. statsMu is a leaf — nothing is acquired under it.
	statsMu    sync.Mutex
	queryStats dwc.EvalStats

	// The admission controller every non-health request passes, and the
	// query cache: /query's prepared plans and its last answers, reused at
	// their state and served by the ladder's LevelStale rung.
	adm    *admission.Controller
	qcache *queryCache
	// plans are the registered carry plans, which every commit tests: what
	// carries reads to prove a stored answer still holds. carried counts
	// the answers it carried forward (/stats queriesCarried), fellBack the
	// checks that fell back to evaluation, by reason, and behind the
	// evaluations of readers whose version is older than the stored answer.
	plans    carryRegistry
	carried  atomic.Int64
	fellBack [numFallbacks]atomic.Int64
	behind   atomic.Int64

	mInFlight   *obs.Gauge
	mQueries    *obs.Counter
	mReused     *obs.Counter
	mQueryDur   *obs.Histogram
	mBudget     *obs.Counter
	mStale      *obs.Counter
	mShed       map[admission.Class]*obs.Counter
	mRefreshes  *obs.Counter
	mRefreshDur *obs.Histogram
	mRestricted *obs.Counter
	mFullRecon  *obs.Counter
	mCopied     *obs.Counter
	mRefreshLag *obs.Histogram
	mCkptDur    *obs.Histogram
	mCkpts      map[string]*obs.Counter // dw_checkpoints_total by outcome
	// dw_checkpoint_pages_total by kind
	mCkptPagesEncoded, mCkptPagesReused *obs.Counter
	mWithdrawn                          *obs.Counter
	mReplLag                            *obs.ObservedGauge
}

// Replica roles as reported by /readyz and /replica/status. A version's
// role only ever holds leader or follower; candidate is derived — a
// follower whose leader link is quarantined or fenced (see roleView).
const (
	roleLeader    = "leader"
	roleFollower  = "follower"
	roleCandidate = "candidate"
)

// version is one published state of the server, immutable once stored in
// server.cur: nothing reachable from it is written again, so whoever
// Loads it — a request, a gauge, the checkpointer — reads one consistent
// state for as long as it keeps the pointer, and pins no more than the
// relations that differ from the current version's.
type version struct {
	w     *dwc.Warehouse    // the warehouse state, pinned (sealed)
	gen   uint64            // names w: 0 at boot, +1 where w is replaced (commit, bootstrapFollower)
	marks map[string]uint64 // last applied sequence per update source: httpSource and every remote
	// epoch and lsn are the replication coordinates of the last committed
	// record; X-DW-Version stamps every answer with them.
	epoch uint64
	lsn   uint64
	// role decides what the server accepts: a leader commits updates and
	// owns maintenance; a follower applies the leader's stream and answers
	// mutating routes with 409. follower is its stream client and loop.
	role     string
	follower *followerState
	// remotes are the attached remote sources (dwsource processes consumed
	// over the wire), by name.
	remotes map[string]*remote.Client

	// Cumulative refresh telemetry, as GET /stats reports it.
	refreshes    int
	refreshStats dwc.EvalStats
	refreshWall  time.Duration
	lastRefresh  refreshSummary

	// Checkpoint bookkeeping (checkpoint.go). ckptDone is non-nil while a
	// background checkpoint is in flight and closed when it has finished.
	journalRecs   int // records in the journal file
	ckptDone      chan struct{}
	lastCkptLSN   uint64
	lastCkptDur   time.Duration
	lastCkptSaved snapshot.SaveStats
}

// stamp renders the version for the X-DW-Version header.
func (v *version) stamp() string {
	return strconv.FormatUint(v.epoch, 10) + "/" + strconv.FormatUint(v.lsn, 10)
}

// withEntry returns a copy of m with key set to val; the maps a version
// holds are never written in place.
func withEntry[V any](m map[string]V, key string, val V) map[string]V {
	out := make(map[string]V, len(m)+1)
	maps.Copy(out, m)
	out[key] = val
	return out
}

// publish stores the next version: a copy of the current one with change
// applied. Caller holds s.mu.
func (s *server) publish(change func(*version)) {
	next := *s.cur.Load()
	change(&next)
	s.cur.Store(&next)
}

// checkpointPath is the marked snapshot inside a -snapshot-dir.
func checkpointPath(dir string) string { return filepath.Join(dir, "state.snap") }

// newServer builds the warehouse from durable state — a checkpoint plus
// journal suffix — or, on a first boot, from the spec's initial state
// (spec.State, else spec.LoadState: the only place a dwserve reads a source).
// Logging is off by default (tests construct servers directly); main
// swaps in a real logger.
func newServer(spec *dwc.Spec, opts dwc.Options, cfg serverConfig) (*server, error) {
	boot := cfg.Boot
	if boot == nil {
		boot = newBootLedger(time.Now())
	}
	comp, err := dwc.ComputeComplement(spec.DB, spec.Views, opts)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	if cfg.JournalPath == "" && cfg.SnapshotDir != "" {
		cfg.JournalPath = filepath.Join(cfg.SnapshotDir, "wal.dwj")
	}
	w := dwc.NewWarehouse(comp)
	s := &server{
		db:        spec.DB,
		views:     spec.Views,
		comp:      comp,
		maintain:  dwc.NewMaintainer(comp),
		cfg:       cfg,
		boot:      boot,
		w:         w,
		journalOK: true,
		log:       obs.NopLogger(),
		reg:       boot.reg,
		tracer:    trace.New(trace.Config{Rate: cfg.TraceSample, Capacity: cfg.TraceBuffer}),
		mstats:    trace.NewMaintStats(0),
		adm:       admission.New(cfg.Admission),
		mChanges:  map[string]*obs.Counter{},
	}
	s.qcache = newQueryCache(&s.plans)
	if cfg.SnapshotDir != "" {
		if err := snapshot.SweepTemps(cfg.SnapshotDir); err != nil {
			return nil, fmt.Errorf("snapshot dir %s: %w", cfg.SnapshotDir, err)
		}
	}

	boot.mark("complement")

	// Materialize: the checkpoint if there is one, else a fresh
	// initialization from the spec's state. v is the version recovery
	// arrives at; it is published once the journal has been replayed.
	v := &version{role: roleLeader, marks: map[string]uint64{}}
	loaded := false
	if cfg.SnapshotDir != "" {
		ms, marks, err := snapshot.LoadFileMarks(checkpointPath(cfg.SnapshotDir))
		switch {
		case err == nil:
			boot.mark("snapshot_load")
			if verr := dwc.VerifySnapshot(ms, comp.Resolver()); verr != nil {
				return nil, verr
			}
			boot.mark("verify")
			w.LoadState(ms)
			// The marks map carries the per-source watermarks plus the
			// reserved "~" replication coordinates — split them so meta
			// marks never pollute the source watermark map. A snapshot
			// written without marks (dwctl snapshot) boots at zero.
			v.marks, v.epoch, v.lsn = replica.SplitMetaMarks(marks)
			loaded = true
		case os.IsNotExist(err):
			// first boot in this directory
		default:
			// Corrupt, or of a format this build does not read: either way
			// the file is somebody's state, and starting empty beside it
			// would be the first step to overwriting it.
			return nil, fmt.Errorf("checkpoint %s: %w", checkpointPath(cfg.SnapshotDir), err)
		}
	}
	if !loaded && !cfg.Follower {
		st := spec.State
		if st == nil {
			var ls parse.LoadStats
			if st, ls, err = spec.LoadState(); err != nil {
				return nil, err
			}
			boot.loaded(ls)
		}
		if err := w.Initialize(st); err != nil {
			return nil, err
		}
		boot.mark("materialize")
		loaded = true
	}
	s.snapshotLoaded.Store(loaded)

	// Replay the journal suffix: every record past the checkpoint's
	// watermark re-runs its refresh, exactly once, source-free. A record
	// that fails on replay marks the server wedged — /readyz reports it and
	// queries serve stale with a staleness header — unless it is the last,
	// which is then a failed commit's whose withdrawal a crash cut short.
	if cfg.JournalPath != "" {
		replay := func(rec journal.Record, last bool) {
			// Records are keyed by their origin: the HTTP API's own
			// sequence, or a remote source's watermark. A follower without
			// a state refreshes nothing: bootstrap restarts the journal.
			if loaded && rec.Seq > v.marks[rec.Source] {
				if _, rerr := s.maintain.RefreshContext(context.Background(), w, rec.Update); rerr == nil {
					v.marks[rec.Source] = rec.Seq
					s.replayed++
				} else if last {
					s.withdrawnTail = fmt.Errorf("last journal record (%s update %d) withdrawn, its refresh fails: %w", rec.Source, rec.Seq, rerr)
					return
				} else {
					if s.wedgedErr == nil {
						s.wedgedErr = fmt.Errorf("replay of %s update %d: %w", rec.Source, rec.Seq, rerr)
					}
					s.journalOK = false
				}
			}
			// Any other record was acknowledged: its coordinates are durable
			// facts even when its refresh was deduplicated or failed.
			v.epoch = max(v.epoch, rec.Epoch)
			v.lsn = max(v.lsn, rec.LSN)
		}
		// A record is replayed once the next has been read, so the last is
		// known as such. A torn tail (a crash mid-append) is dropped by Open.
		var held *journal.Record
		n, _, err := journal.Replay(cfg.JournalPath, spec.DB, func(rec journal.Record) error {
			if held != nil {
				replay(*held, false)
			}
			held = &rec
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("journal %s: %w", cfg.JournalPath, err)
		}
		if held != nil {
			replay(*held, true)
		}
		jw, err := journal.Open(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		if s.withdrawnTail != nil {
			if err := jw.Withdraw(); err != nil {
				jw.Close()
				return nil, fmt.Errorf("journal %s: %w", cfg.JournalPath, err)
			}
			n--
		}
		s.jw, v.journalRecs = jw, n
		boot.mark("replay")
	}
	v.w = w.Pin()
	s.cur.Store(v)
	// The replication log resumes at the recovered coordinates: retained
	// records start at lsn+1, so followers that were caught up before a
	// restart stream straight through it.
	s.rlog = replica.NewLog(cfg.ReplicaRetain)
	s.rlog.Reset(v.lsn, v.epoch)
	s.lastGoodNano.Store(time.Now().UnixNano())
	s.mInFlight = s.reg.Gauge("dw_http_in_flight_requests",
		"HTTP requests currently being served.", nil)
	s.mQueries = s.reg.Counter("dw_queries_total",
		"Source queries answered through the Theorem 3.1 translation.", nil)
	s.mReused = s.reg.Counter("dw_queries_reused_total",
		"Queries answered with the stored bytes of an answer computed at the published state.", nil)
	s.mQueryDur = s.reg.Histogram("dw_query_duration_seconds",
		"Query evaluation latency (translate + evaluate), or the lookup of a reused answer.", obs.DefLatencyBuckets, nil)
	s.mBudget = s.reg.Counter("dw_query_budget_exceeded_total",
		"Queries aborted for exceeding the per-query row budget.", nil)
	s.mStale = s.reg.Counter("dw_stale_answers_total",
		"Queries answered from the stale-answer cache under degradation.", nil)
	s.mShed = make(map[admission.Class]*obs.Counter)
	for _, cl := range admission.Classes() {
		s.mShed[cl] = s.reg.Counter("dw_admission_shed_total",
			"Requests refused by admission control, by class.", obs.Labels{"class": cl.String()})
	}
	s.mRefreshes = s.reg.Counter("dw_refreshes_total",
		"Incremental warehouse refreshes applied.", nil)
	s.mRefreshDur = s.reg.Histogram("dw_refresh_duration_seconds",
		"End-to-end refresh latency.", obs.DefLatencyBuckets, nil)
	s.mRestricted = s.reg.Counter("dw_refresh_restricted_lookups_total",
		"Refresh pre-state reads answered by probe-restricted evaluation.", nil)
	s.mFullRecon = s.reg.Counter("dw_refresh_full_reconstructions_total",
		"Refresh pre-state reads that forced a full base reconstruction.", nil)
	s.mCopied = s.reg.Counter("dw_refresh_copied_bytes_total",
		"Bytes of relation pages refreshes copied to apply their deltas copy-on-write.", nil)
	s.mRefreshLag = s.reg.Histogram("dw_refresh_lag_seconds",
		"End-to-end refresh lag: report emitted at the source to delta visible in views.",
		obs.DefLatencyBuckets, nil)
	s.mWithdrawn = s.reg.Counter("dw_journal_withdrawn_total",
		"Journal records withdrawn because their commit failed after the append began.", nil)
	s.mCkptDur = s.reg.Histogram("dw_checkpoint_duration_seconds",
		"Checkpoint duration, encode to journal compaction (off the commit path except at shutdown, promotion and bootstrap).",
		obs.DefLatencyBuckets, nil)
	s.mCkpts = make(map[string]*obs.Counter)
	for _, outcome := range []string{"ok", "error", "skipped_inflight"} {
		s.mCkpts[outcome] = s.reg.Counter("dw_checkpoints_total",
			"Checkpoints by outcome: ok, error, or skipped_inflight (the trigger fired while one was running).",
			obs.Labels{"outcome": outcome})
	}
	pages := func(kind string) *obs.Counter {
		return s.reg.Counter("dw_checkpoint_pages_total",
			"Row pages in completed checkpoints: encoded because they were written since a snapshot last held them, or reused from the cache kept with the page.",
			obs.Labels{"kind": kind})
	}
	s.mCkptPagesEncoded, s.mCkptPagesReused = pages("encoded"), pages("reused")
	s.reg.GaugeFunc("dw_warehouse_tuples",
		"Tuples materialized across all warehouse relations.", nil,
		func() float64 { return float64(s.cur.Load().w.Size()) })
	s.reg.GaugeFunc("dw_warehouse_relations",
		"Materialized warehouse relations (views + stored complements).", nil,
		func() float64 { return float64(len(s.cur.Load().w.Names())) })
	s.reg.GaugeFunc("dw_staleness_seconds",
		"Seconds since the last successful refresh while degraded; 0 when healthy.", nil,
		func() float64 { return s.staleness().Seconds() })
	s.reg.GaugeFunc("dw_admission_in_flight",
		"Weighted work currently admitted by the admission controller.", nil,
		func() float64 { return float64(s.adm.InFlight()) })
	s.reg.GaugeFunc("dw_admission_queue_depth",
		"Requests waiting in the admission queues across all classes.", nil,
		func() float64 { return float64(s.adm.Queued()) })
	s.reg.GaugeFunc("dw_admission_level",
		"Degradation-ladder level: 0 normal, 1 no-trace, 2 stale, 3 shed-queries.", nil,
		func() float64 { return float64(s.adm.Level()) })
	return s, nil
}

// staleness is how long the served state has been stale: zero while
// healthy, the age of the last successful refresh while degraded.
func (s *server) staleness() time.Duration {
	if !s.degraded.Load() {
		return 0
	}
	return time.Since(time.Unix(0, s.lastGoodNano.Load()))
}

// instrument wraps a handler with the observability layer: an in-flight
// gauge, a per-route latency histogram, a status-labeled request counter,
// one structured log line per request carrying its request ID, and a
// per-request trace span. An inbound `traceparent` header joins the
// caller's trace (sampled flag honored); when the request's span is
// recorded, its trace ID is echoed on the X-DW-Trace response header so
// callers can fetch the trace from GET /traces/{id}.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	// The route's series are resolved here, once, and its counters once per
	// status code seen: a registry lookup builds a label map and a key.
	hist := s.reg.Histogram("dw_http_request_duration_seconds",
		"HTTP request latency by route.", obs.DefLatencyBuckets,
		obs.Labels{"route": route})
	var byCode sync.Map // status code → *obs.Counter
	return func(w http.ResponseWriter, req *http.Request) {
		ctx, id := obs.WithRequestID(req.Context())
		if tp := req.Header.Get("traceparent"); tp != "" {
			ctx = trace.ContextWithRemote(ctx, tp)
		}
		ctx, sp := s.tracer.Start(ctx, "http "+route)
		if sp.Recording() {
			w.Header().Set("X-DW-Trace", sp.Context().TraceID.String())
		}
		rec := obs.NewStatusRecorder(w)
		s.mInFlight.Add(1)
		start := time.Now()
		h(rec, req.WithContext(ctx))
		elapsed := time.Since(start)
		s.mInFlight.Add(-1)
		sp.SetAttrInt("status", int64(rec.Status))
		sp.End()
		c, ok := byCode.Load(rec.Status)
		if !ok {
			c, _ = byCode.LoadOrStore(rec.Status, s.reg.Counter("dw_http_requests_total",
				"HTTP requests by route and status code.",
				obs.Labels{"route": route, "code": strconv.Itoa(rec.Status)}))
		}
		c.(*obs.Counter).Inc()
		hist.Observe(elapsed.Seconds())
		if rec.Err != nil {
			s.log.Warn("response body failed", "id", id, "route", route, "status", rec.Status, "err", rec.Err)
		}
		s.logRequest(id, route, rec, elapsed)
	}
}

// logRequest writes a request's access-log line: the bytes s.log.Info
// writes, without the stack walk for a source position the handlers never
// print, and without boxing the attributes.
func (s *server) logRequest(id, route string, rec *obs.StatusRecorder, elapsed time.Duration) {
	ctx, h := context.Background(), s.log.Handler()
	if !h.Enabled(ctx, slog.LevelInfo) {
		return
	}
	r := slog.NewRecord(time.Now(), slog.LevelInfo, "request", 0)
	r.AddAttrs(
		slog.String("id", id),
		slog.String("route", route),
		slog.Int("status", rec.Status),
		slog.Int64("bytes", rec.Bytes),
		slog.Int64("durUs", elapsed.Microseconds()),
	)
	_ = h.Handle(ctx, r)
}

// routeDef is one row of the routing table: the ServeMux pattern, the
// handler, the banner description, and the admission class + weight the
// request is admitted under. Keeping pattern, handler, documentation and
// admission policy in ONE table (instead of a handler map plus separately
// maintained lists) is what guarantees every route — /readyz and
// /metrics included — goes through the obs and admission middleware
// exactly once and shows up in the startup banner; TestRouteCoverage
// locks this in.
type routeDef struct {
	pattern string
	handler http.HandlerFunc
	doc     string
	class   admission.Class
	weight  int
}

// routes returns the complete routing table in banner order. Probes and
// metrics are Health (never queued, never shed); updates are Delivery
// (maintenance outranks queries); reads are Query, with reconstruction
// weighted heavier because W⁻¹ recomputes a whole base relation;
// diagnostics are Trace, the first class the ladder sheds.
func (s *server) routes() []routeDef {
	metrics := obs.MetricsHandler(s.reg)
	return []routeDef{
		{"GET /healthz", s.handleHealth, "server and warehouse status (liveness)", admission.Health, 1},
		{"GET /readyz", s.handleReady, "readiness: snapshot loaded, journal replayed, not draining", admission.Health, 1},
		{"GET /schema", s.handleSchema, "database and view definitions", admission.Query, 1},
		{"GET /complement", s.handleComplement, "complement entries and inverses", admission.Query, 1},
		{"GET /relations", s.stateful(s.handleRelations), "warehouse relation sizes", admission.Query, 1},
		{"GET /relations/{name}", s.stateful(s.handleRelation), "one materialized relation", admission.Query, 1},
		{"GET /query", s.stateful(s.handleQuery), "translate + answer a source query (&explain=1 stats, =2 plan tree)", admission.Query, 1},
		{"POST /update", s.handleUpdate, "apply update ops (insert R(...)/delete R(...))", admission.Delivery, deliveryWeight},
		{"GET /reconstruct/{base}", s.stateful(s.handleReconstruct), "recompute a base relation via W⁻¹", admission.Query, 2},
		{"GET /stats", s.handleStats, "cumulative evaluation, refresh and maintenance counters", admission.Trace, 1},
		{"GET /traces", s.handleTraces, "recent sampled traces (&limit=N)", admission.Trace, 1},
		{"GET /traces/{id}", s.handleTrace, "one trace's spans as JSON plus a rendered tree", admission.Trace, 1},
		{"GET /replica/snapshot", s.stateful(s.handleReplicaSnapshot), "ship the current checkpoint to a bootstrapping follower", admission.Delivery, deliveryWeight},
		{"GET /replica/stream", s.handleReplicaStream, "stream journal records from ?from=LSN (&wait=ms long-polls)", admission.Delivery, 1},
		{"GET /replica/status", s.handleReplicaStatus, "replication role, epoch and log positions", admission.Health, 1},
		{"POST /promote", s.stateful(s.handlePromote), "promote this replica to leader (?epoch=N fences older terms)", admission.Health, 1},
		{"POST /replica/repoint", s.handleRepoint, "re-point this follower at ?leader=URL", admission.Health, 1},
		{"GET /metrics", metrics.ServeHTTP, "Prometheus text exposition", admission.Health, 1},
	}
}

// stateful guards a route that needs a warehouse state: a follower still
// waiting for its first snapshot has none an X-DW-Version could name.
func (s *server) stateful(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if !s.snapshotLoaded.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errors.New("no warehouse state yet: waiting for the leader's snapshot"))
			return
		}
		h(w, req)
	}
}

// handler returns the HTTP routing table with every handler wrapped in
// the obs middleware exactly once, admission control inside it — so
// shed responses are themselves observed per route.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		mux.HandleFunc(r.pattern, s.instrument(r.pattern, s.admitted(r)))
	}
	return mux
}

// writeJSON answers with a small fixed-shape body through encoding/json
// and writeBody; result rows never come this way (answer.go). A failed
// encode is handed to the request's recorder, for instrument to log with
// the request id, and leaves the body empty.
func writeJSON(w http.ResponseWriter, status int, body any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		if rec, ok := w.(*obs.StatusRecorder); ok {
			rec.Err = err
		}
	}
	writeBody(w, status, buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	v := s.cur.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"relations": len(v.w.Names()),
		"tuples":    v.w.Size(),
		"refreshes": v.refreshes,
		"seq":       v.marks[httpSource],
		"degraded":  s.degraded.Load(),
	})
}

// handleReady is the readiness probe: 200 only when the snapshot is
// materialized, the journal replayed without wedging, and the server is
// not draining. A liveness probe should use /healthz instead — a wedged
// or draining server is alive, just not accepting its share of traffic.
//
// Remote sources report per-source readiness: a degraded or quarantined
// source flips the body to degraded but NOT the status to 503 — the
// warehouse still answers queries from its last good state (serve
// stale), so load balancers should keep routing to it.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	v := s.cur.Load()
	sources, sourcesDegraded := v.remoteHealth()
	body := map[string]any{
		"snapshotLoaded":  s.snapshotLoaded.Load(),
		"journalReplayed": s.journalOK,
		"replayedRecords": s.replayed,
		"draining":        s.draining.Load(),
		"degraded":        s.degraded.Load() || sourcesDegraded,
		"stalenessSec":    s.staleness().Seconds(),
		"role":            v.roleView(),
		"epoch":           v.epoch,
		"lsn":             v.lsn,
	}
	if v.follower != nil {
		// The leader link's health (breaker state, staleness, cursor) and
		// this replica's catch-up lag behind the leader's tip.
		body["leader"] = v.follower.client.Health()
		body["replicaLagSec"] = s.replicaLag().Seconds()
	}
	if len(sources) > 0 {
		perSource := map[string]remote.Health{}
		for _, h := range sources {
			perSource[h.Source] = h
		}
		body["sources"] = perSource
		body["sourcesDegraded"] = sourcesDegraded
	}
	if s.wedgedErr != nil {
		body["wedged"] = s.wedgedErr.Error()
	}
	if !s.snapshotLoaded.Load() || !s.journalOK || s.draining.Load() {
		body["ready"] = false
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["ready"] = true
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	views := map[string]string{}
	for _, v := range s.views.Views() {
		views[v.Name] = v.Expr().String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"database": s.db.String(),
		"views":    views,
	})
}

// handleComplement lists the complement's entries with what each costs in
// the version read: its rows and the bytes of its checkpoint sections (0
// for one proved empty, which is not stored), beside warehouseBytes, the
// sections of every relation the warehouse stores.
func (s *server) handleComplement(w http.ResponseWriter, _ *http.Request) {
	state := s.read(w).w.State()
	var total int64
	for _, r := range state {
		total += r.SectionBytes()
	}
	entries := make([]map[string]any, 0)
	for _, e := range s.comp.Entries() {
		rows, size := 0, int64(0)
		if r, ok := state[e.Name]; ok && !e.AlwaysEmpty {
			rows, size = r.Len(), r.SectionBytes()
		}
		entries = append(entries, map[string]any{
			"base":        e.Base,
			"name":        e.Name,
			"alwaysEmpty": e.AlwaysEmpty,
			"definition":  e.Def.String(),
			"inverse":     e.Inverse.String(),
			"rows":        rows,
			"bytes":       size,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"entries": entries, "warehouseBytes": total})
}

// read loads the version a read route answers from and stamps the
// response with it: X-DW-Version says which state the answer was computed
// from (epoch/lsn of its last committed record), and X-DW-Staleness
// advertises degraded reads — when the last refresh (or its persistence)
// failed, or a remote source's report stream is stale, answers are still
// served from the last good state, warehouse-only, per the paper, and
// callers decide whether to trust them. That header carries the
// warehouse's own staleness in seconds when its last refresh failed, then
// name=seconds for each stale remote source (e.g. "sales=2.310").
func (s *server) read(w http.ResponseWriter) *version {
	v := s.cur.Load()
	s.stamp(w, v)
	return v
}

// stamp sets the headers of an answer read from v.
func (s *server) stamp(w http.ResponseWriter, v *version) {
	w.Header().Set("X-DW-Version", v.stamp())
	if hdr := s.stalenessHeader(v); hdr != "" {
		w.Header().Set("X-DW-Staleness", hdr)
	}
}

// writeReused answers a plain query with the stored bytes of an answer that
// is Q̂(v.w) for the state the response is stamped with: computed from it
// (how = "reused") or carried forward to it ("carried").
func (s *server) writeReused(w http.ResponseWriter, req *http.Request, body []byte, start time.Time, how string) {
	trace.FromContext(req.Context()).SetAttr("answer", how)
	s.mQueries.Inc()
	s.mReused.Inc()
	s.mQueryDur.Observe(time.Since(start).Seconds())
	writeBody(w, http.StatusOK, body)
}

func (s *server) handleRelations(w http.ResponseWriter, _ *http.Request) {
	v := s.read(w)
	out := map[string]int{}
	for name, r := range v.w.State() {
		out[name] = r.Len()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleRelation(w http.ResponseWriter, req *http.Request) {
	v := s.read(w)
	name := req.PathValue("name")
	r, ok := v.w.Relation(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no warehouse relation %q", name))
		return
	}
	writeRelation(w, r)
}

func (s *server) handleQuery(w http.ResponseWriter, req *http.Request) {
	params := req.URL.Query()
	src := params.Get("q")
	if src == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	explain := 0
	switch params.Get("explain") {
	case "1":
		explain = 1
	case "2":
		explain = 2
	}
	// The ladder's first rung: explain output is diagnostics, so it is
	// stripped (not refused — the answer still matters) under pressure.
	if s.adm.Level() >= admission.LevelNoTrace {
		explain = 0
	}
	v := s.read(w)
	start := time.Now()
	e, err := s.qcache.plan(src, v.w)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if explain == 0 && e.body != nil && e.gen == v.gen {
		s.writeReused(w, req, e.body, start, "reused")
		return
	}
	if explain == 0 && e.body != nil {
		switch why := carries(e, v); why {
		case carried:
			e.at, e.version, e.gen = time.Now(), v.stamp(), v.gen
			s.qcache.restamp(src, e)
			s.carried.Add(1)
			s.writeReused(w, req, e.body, start, "carried")
			return
		case readBehind:
			s.behind.Add(1)
		default:
			s.fellBack[why].Add(1)
		}
	}
	// The context adds the -query-timeout deadline and -query-budget row
	// budget; both abort the evaluation at the next operator boundary.
	ectx, cancel := s.queryContext(req)
	defer cancel()
	// The evaluation span (child of the request span) carries the query,
	// its cardinality and the compact executed-plan signature, so a trace
	// shows WHAT ran, not just how long it took.
	qctx, sp := trace.StartSpan(ectx, "query.eval")
	defer sp.End()
	sp.SetAttr("query", e.query)
	rows, err := dwc.EvalExpr(qctx, e.qHat, v.w)
	if err != nil {
		sp.SetAttr("outcome", "error")
		s.mQueries.Inc()
		if errors.Is(err, dwc.ErrBudgetExceeded) {
			s.mBudget.Inc()
		}
		writeEvalError(w, err)
		return
	}
	stats := rows.Stats()
	sp.SetAttrInt("rows", int64(rows.Len()))
	if sp.Recording() { // a sampled-out span would drop the rendered plan
		if plan := stats.PlanSummary(0); plan != "" {
			sp.SetAttr("plan", plan)
		}
	}
	s.mQueries.Inc()
	s.mQueryDur.Observe(stats.Wall.Seconds())
	s.statsMu.Lock()
	s.queryStats.Add(*stats)
	s.statsMu.Unlock()
	var extra map[string]any
	if explain >= 1 {
		// Flat counters at every explain level, with the per-source
		// sequence marks of the version evaluated; the executed plan tree
		// only at explain=2 (it is per-operator and thus bigger).
		flat := *stats
		plan := flat.Plan
		flat.Plan = nil
		extra = map[string]any{"stats": struct {
			dwc.EvalStats
			Seq map[string]uint64 `json:"seq"`
		}{flat, v.marks}}
		if explain >= 2 {
			extra["plan"] = plan
			extra["planText"] = dwc.RenderPlan(plan, true)
		}
	}
	body, err := answerBody(e.query, e.translated, e.inOrder(rows.Relation()), extra)
	if err != nil {
		writeUnencodable(w, err)
		return
	}
	if explain == 0 {
		// Plain answers are reused while v.gen is published, and are what
		// the ladder's LevelStale rung serves. Once a commit has run, the
		// text's carry plan is registered, so the next commit is tested.
		e.body, e.at, e.version, e.gen, e.cost = body, time.Now(), v.stamp(), v.gen, evalCost(stats)
		if e, stored := s.qcache.put(src, e); stored && v.gen > 0 {
			s.track(ectx, e)
		}
	}
	writeBody(w, http.StatusOK, body)
}

func (s *server) handleUpdate(w http.ResponseWriter, req *http.Request) {
	limit := s.cfg.MaxBody
	if limit <= 0 {
		limit = 1 << 20
	}
	// MaxBytesReader (unlike a bare LimitReader) distinguishes "body too
	// large" from a short read, so oversized updates get an honest 413
	// instead of a confusing parse error.
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("update body exceeds -max-body=%d: %w", limit, err))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	u, err := dwc.ParseUpdateOps(s.db, string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.lockCommit()
	defer s.mu.Unlock()
	v := s.cur.Load()
	// Followers are read-only: every mutation flows through the leader,
	// arrives on the replication stream, and is applied by the follower
	// loop — a direct write here would fork the lineage.
	if v.role != roleLeader {
		writeError(w, http.StatusConflict, warehouse.ErrReadOnlyReplica)
		return
	}
	// Epoch and the next LSN: followers stream the record as recovery replays it.
	rec := journal.Record{Source: httpSource, Seq: v.marks[httpSource] + 1, Update: u, Epoch: v.epoch, LSN: v.lsn + 1}
	stats, err := s.commit(req.Context(), rec, 0)
	if err != nil {
		// Cancellation (499) and deadline pressure (503 + Retry-After) are
		// honored only before deltas are applied — the refresh happens
		// entirely or not at all, so a 499 means "unchanged" — and are the
		// caller's to retry: neither marks the warehouse degraded.
		if status, _ := evalStatus(err); status != http.StatusInternalServerError {
			writeEvalError(w, err)
			return
		}
		// A real refresh or journal failure: reads now serve stale until
		// an update succeeds again.
		s.degraded.Store(true)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, http.StatusOK, appendAck(make([]byte, 0, 128), stats))
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	v := s.cur.Load()
	s.statsMu.Lock()
	queryStats := s.queryStats
	s.statsMu.Unlock()
	fellBack := map[string]int64{}
	for why := fellBackUntracked; why < numFallbacks; why++ {
		fellBack[fallbackNames[why]] = s.fellBack[why].Load()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"queries":       s.mQueries.Value(),
		"queriesReused": s.mReused.Value(),
		// Of those, the answers carried forward from an earlier state; the
		// carry checks that fell back to evaluation, by reason; the
		// evaluations of readers behind the stored answer; and the carry
		// plans every commit tests, with what they hold.
		"queriesCarried": s.carried.Load(),
		"carryFallbacks": fellBack,
		"queriesBehind":  s.behind.Load(),
		"carryPlans":     s.plans.snapshot(),
		"queryStats":     queryStats,
		"refreshes":      v.refreshes,
		"refreshStats":   v.refreshStats,
		"refreshWallNs":  v.refreshWall.Nanoseconds(),
		"lastRefresh":    v.lastRefresh,
		"checkpoint": map[string]any{
			"lastLsn":        v.lastCkptLSN,
			"lastDurationNs": v.lastCkptDur.Nanoseconds(),
			"lastBytes":      v.lastCkptSaved.Bytes,
			"pagesEncoded":   v.lastCkptSaved.PagesEncoded,
			"pagesReused":    v.lastCkptSaved.PagesReused,
			"inFlight":       v.ckptDone != nil,
			"journalRecords": v.journalRecs,
		},
		// Maintenance EWMAs: the input contract of the parked cost-based
		// maintenance planner (ROADMAP "Parked").
		"maintenance": s.mstats.Snapshot(),
		"boot":        s.boot.stats(),
	})
}

// traceListCap bounds GET /traces responses; the detail endpoint is
// already bounded by the ring buffer's capacity.
const traceListCap = 100

// wireSpan is the JSON shape of one span on GET /traces/{id}: the
// SpanRecord plus its (store-internal) identifiers, so clients can
// rebuild the parent/child tree.
type wireSpan struct {
	SpanID string `json:"spanId"`
	Parent string `json:"parentId,omitempty"`
	trace.SpanRecord
}

// handleTraces lists recently finished traces, most recent first.
func (s *server) handleTraces(w http.ResponseWriter, req *http.Request) {
	limit := 20
	if v := req.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	if limit > traceListCap {
		limit = traceListCap
	}
	store := s.tracer.Store()
	writeJSON(w, http.StatusOK, map[string]any{
		"retainedSpans": store.Len(),
		"traces":        store.Traces(limit),
	})
}

// handleTrace returns one trace's retained spans, start-ordered, plus
// the same rendered tree the dwctl REPL shows.
func (s *server) handleTrace(w http.ResponseWriter, req *http.Request) {
	id, ok := trace.ParseTraceID(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace id %q", req.PathValue("id")))
		return
	}
	spans, ok := s.tracer.Store().Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no retained trace %s", id))
		return
	}
	out := make([]wireSpan, len(spans))
	for i, sp := range spans {
		out[i] = wireSpan{SpanID: sp.SpanID.String(), SpanRecord: sp}
		if !sp.Parent.IsZero() {
			out[i].Parent = sp.Parent.String()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traceId": id.String(),
		"spans":   out,
		"text":    trace.Render(spans),
	})
}

func (s *server) handleReconstruct(w http.ResponseWriter, req *http.Request) {
	base := req.PathValue("base")
	if _, ok := s.db.Schema(base); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no base relation %q", base))
		return
	}
	bases, err := s.read(w).w.ReconstructBases()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeRelation(w, bases[base])
}

// observeMaintenance folds one refresh's outcome into the planner-facing
// EWMAs: per-target delta/view sizes and propagation time, plus the
// refresh-wide lookup mix and (for remote reports that carried an
// emission timestamp) the end-to-end refresh lag. Pass lag < 0 when the
// update had no source emit time (HTTP updates). Caller holds s.mu, so
// post-refresh view sizes can be read from the writer's warehouse.
func (s *server) observeMaintenance(stats dwc.RefreshStats, lag time.Duration) {
	for _, span := range stats.Spans {
		size := 0
		if r, ok := s.w.Relation(span.Target); ok {
			size = r.Len()
		}
		s.mstats.ObserveTarget(span.Target, span.DeltaIns+span.DeltaDel, span.Applied,
			size, stats.RestrictedLookups, stats.FullReconstructions, span.Wall)
	}
	s.mstats.ObserveRefresh(stats.RestrictedLookups, stats.FullReconstructions, stats.Wall, lag)
}

// beginDrain flips /readyz to 503 so load balancers stop routing new
// traffic while in-flight requests finish.
func (s *server) beginDrain() { s.draining.Store(true) }

// shutdown finishes a graceful stop after the HTTP listener has
// drained: stop the remote poll loops and the follower stream loop,
// write a final checkpoint (so the next boot replays nothing) and
// release the journal.
func (s *server) shutdown() error {
	s.stopRemotes()
	s.stopFollower()
	s.lockBacklogBelow(0)
	defer s.mu.Unlock()
	err := s.checkpointLocked(s.cur.Load())
	if s.jw != nil {
		if cerr := s.jw.Close(); err == nil {
			err = cerr
		}
		s.jw = nil
	}
	return err
}

// describeRoutes lists the API for the startup banner, generated from
// the same table the mux is built from so the two can never drift.
func (s *server) describeRoutes() string {
	var lines []string
	for _, r := range s.routes() {
		method, path, _ := strings.Cut(r.pattern, " ")
		lines = append(lines, fmt.Sprintf("%-4s %-25s %s", method, path, r.doc))
	}
	return strings.Join(lines, "\n")
}
