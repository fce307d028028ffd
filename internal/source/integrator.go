package source

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/warehouse"
)

// ErrBackpressure reports that a source's pending buffer is full: the
// integrator refuses the notification rather than queueing without
// bound. The dropped report is recovered through the gap machinery
// (Gaps/Resync), which re-requests it from the reporting channel.
var ErrBackpressure = errors.New("source: integrator pending buffer full")

// GapError describes a head-of-line sequence gap: the integrator has
// buffered notifications for a source but the next-expected report is
// missing (dropped in transit or refused under backpressure). It is the
// typed signal the resync machinery acts on.
type GapError struct {
	Source   string
	Expected uint64        // next sequence number the integrator needs
	Have     uint64        // lowest buffered sequence number
	Pending  int           // notifications buffered behind the gap
	Age      time.Duration // how long the gap has persisted
}

func (e *GapError) Error() string {
	return fmt.Sprintf("source: %s gap: need seq %d, have %d (%d pending, open %v)",
		e.Source, e.Expected, e.Have, e.Pending, e.Age.Round(time.Millisecond))
}

// DeadLetter is one notification the integrator accepted but could not
// apply (refresh failure), or could not accept (backpressure, journal
// failure). Nothing is ever silently swallowed: every failure lands
// here with its cause.
type DeadLetter struct {
	Notification
	Err  error
	Time time.Time
}

// defaultMaxPending bounds each source's pending buffer.
const defaultMaxPending = 1024

// Integrator is the component between sources and warehouse in Figure 1:
// it receives change notifications, serializes them, and maintains the
// warehouse incrementally and update-independently. It holds no source
// connection beyond the notification channel — by construction it cannot
// issue the dashed-arrow queries.
//
// The delivery path is hardened against real transports: stale
// duplicates (Seq ≤ applied) are dropped instead of wedging the drain
// loop, per-source pending buffers are bounded with backpressure,
// head-of-line gaps surface as typed GapErrors with a resync hook that
// re-requests reports from the reporting channel only, and refresh
// failures go to a dead-letter list instead of being swallowed. With an
// attached journal every accepted notification is written ahead of its
// refresh, making the pipeline crash-recoverable (see Recover).
type Integrator struct {
	w *warehouse.Warehouse
	m *maintain.Maintainer

	mu         lockrank.Mutex[lockrank.Integrator]
	applied    map[string]uint64 // last sequence number applied per source
	pending    map[string][]Notification
	gapSince   map[string]time.Time // when the current head gap opened
	wedged     map[string]error     // sources whose head refresh keeps failing
	dead       []DeadLetter
	jw         *journal.Writer
	maxPending int
	gapTimeout time.Duration
	resync     func(source string, fromSeq uint64) error
	refreshs   int
	changed    int
	dups       int
	rejected   int

	mDups, mRejected, mDead, mResyncs *obs.Counter
}

// NewIntegrator wires an integrator to the warehouse. Registration with
// sources is the caller's job (src.OnUpdate(integ.Receive)).
func NewIntegrator(w *warehouse.Warehouse, comp *core.Complement) *Integrator {
	return &Integrator{
		w:          w,
		m:          maintain.NewMaintainer(comp),
		applied:    make(map[string]uint64),
		pending:    make(map[string][]Notification),
		gapSince:   make(map[string]time.Time),
		wedged:     make(map[string]error),
		maxPending: defaultMaxPending,
	}
}

// SetMaxPending bounds each source's pending buffer (minimum 1).
func (g *Integrator) SetMaxPending(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n < 1 {
		n = 1
	}
	g.maxPending = n
}

// SetGapTimeout sets how long a head-of-line gap must persist before
// Resync re-requests it (0 = immediately eligible).
func (g *Integrator) SetGapTimeout(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gapTimeout = d
}

// SetResyncHook installs the re-request callback used by Resync. The
// hook must re-deliver reports through the notification channel (e.g.
// Source.Resend) — it is handed a source name and the first missing
// sequence number, never a query handle, so the sealed-source property
// is preserved by construction.
func (g *Integrator) SetResyncHook(fn func(source string, fromSeq uint64) error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.resync = fn
}

// SetMetrics registers the integrator's counters and gauges with an obs
// registry (duplicates, rejected offers, dead letters, resyncs, pending
// and wedged gauges).
func (g *Integrator) SetMetrics(reg *obs.Registry) {
	g.mu.Lock()
	g.mDups = reg.Counter("dw_integrator_duplicates_total",
		"Stale or duplicated notifications dropped by the integrator.", nil)
	g.mRejected = reg.Counter("dw_integrator_rejected_total",
		"Notifications refused (backpressure or journal failure).", nil)
	g.mDead = reg.Counter("dw_integrator_dead_letters_total",
		"Notifications routed to the dead-letter list.", nil)
	g.mResyncs = reg.Counter("dw_integrator_resyncs_total",
		"Gap re-requests issued through the reporting channel.", nil)
	g.mu.Unlock()
	reg.GaugeFunc("dw_integrator_pending_notifications",
		"Notifications buffered behind sequence gaps.", nil, func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			n := 0
			for _, q := range g.pending {
				n += len(q)
			}
			return float64(n)
		})
	reg.GaugeFunc("dw_integrator_wedged_sources",
		"Sources whose head notification keeps failing to refresh.", nil, func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.wedged))
		})
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// AttachJournal starts write-ahead journaling: every subsequently
// accepted notification is appended (checksummed, fsync'd) before its
// refresh runs. Attach before traffic starts; Recover attaches
// automatically.
func (g *Integrator) AttachJournal(jw *journal.Writer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.jw = jw
}

// Receive accepts a notification and applies it — immediately when it
// is the next in the source's sequence, otherwise it is buffered until
// the gap closes (sources deliver in order, but real transports drop,
// duplicate, and reorder; per-source order is all the maintenance
// needs, since updates from different sources touch disjoint
// relations). Notifications the integrator must refuse (see Offer) are
// recorded as dead letters, never silently dropped.
func (g *Integrator) Receive(n Notification) {
	if err := g.Offer(n); err != nil {
		g.mu.Lock()
		g.dead = append(g.dead, DeadLetter{Notification: n, Err: err, Time: time.Now()})
		inc(g.mDead)
		g.mu.Unlock()
	}
}

// Offer is Receive with an error: it returns ErrBackpressure when the
// source's pending buffer is full and the journal's error when the
// write-ahead append fails. In both cases the notification is not
// accepted and the caller (or the gap machinery) must re-deliver it.
// Stale duplicates are dropped and counted, not errors.
func (g *Integrator) Offer(n Notification) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.Seq <= g.applied[n.Source] {
		g.dups++ // already applied: a transport re-delivery
		inc(g.mDups)
		return nil
	}
	for _, p := range g.pending[n.Source] {
		if p.Seq == n.Seq {
			g.dups++ // already buffered
			inc(g.mDups)
			return nil
		}
	}
	// A full buffer refuses out-of-order reports — but never the one that
	// closes the head-of-line gap, or a full buffer of gapped entries
	// could deadlock delivery permanently.
	if len(g.pending[n.Source]) >= g.maxPending && n.Seq != g.applied[n.Source]+1 {
		g.rejected++
		inc(g.mRejected)
		return fmt.Errorf("source: %s seq %d refused: %w", n.Source, n.Seq, ErrBackpressure)
	}
	if g.jw != nil {
		if err := g.jw.AppendContext(context.Background(), journal.Record{Source: n.Source, Seq: n.Seq, Update: n.Update}); err != nil {
			g.rejected++
			inc(g.mRejected)
			return fmt.Errorf("source: journal append for %s seq %d: %w", n.Source, n.Seq, err)
		}
	}
	g.pending[n.Source] = append(g.pending[n.Source], n)
	g.drainLocked(context.Background(), n.Source)
	return nil
}

// drainLocked applies buffered notifications in sequence order until it
// reaches a gap, a refresh failure, or ctx cancellation. Stale entries
// (Seq ≤ applied) are discarded — a duplicate sorting to the head of
// the queue must never block the drain loop. A canceled refresh leaves
// its notification at the head for a later drive without wedging the
// source or recording a dead letter: cancellation is the caller's
// choice, not a pipeline fault.
func (g *Integrator) drainLocked(ctx context.Context, src string) {
	queue := g.pending[src]
	sort.Slice(queue, func(i, j int) bool { return queue[i].Seq < queue[j].Seq })
	next := g.applied[src] + 1
	i := 0
loop:
	for i < len(queue) {
		switch {
		case queue[i].Seq < next:
			// Stale duplicate: drop and keep draining.
			g.dups++
			inc(g.mDups)
			i++
		case queue[i].Seq == next:
			if ctx.Err() != nil {
				break loop
			}
			_, err := g.m.RefreshContext(ctx, g.w, queue[i].Update)
			if err != nil {
				if ctx.Err() != nil {
					// Canceled mid-refresh: the atomic refresh left the
					// warehouse unchanged; redrive later.
					break loop
				}
				// The atomic refresh left the warehouse unchanged; the
				// notification stays at the head for redelivery and the
				// failure is recorded, not swallowed.
				g.wedged[src] = err
				g.dead = append(g.dead, DeadLetter{Notification: queue[i], Err: err, Time: time.Now()})
				inc(g.mDead)
				break loop
			}
			delete(g.wedged, src)
			g.applied[src] = next
			g.refreshs++
			g.changed += queue[i].Update.Size()
			next++
			i++
		default:
			// Sequence gap: everything from here on waits for it.
			break loop
		}
	}
	g.pending[src] = append([]Notification(nil), queue[i:]...)
	if len(g.pending[src]) == 0 {
		delete(g.pending, src)
		delete(g.gapSince, src)
	} else if _, wedged := g.wedged[src]; !wedged && queue[i].Seq > next {
		if g.gapSince[src].IsZero() {
			g.gapSince[src] = time.Now()
		}
	} else {
		delete(g.gapSince, src)
	}
}

// Gaps reports every source whose next-expected notification is
// missing while later ones are buffered.
func (g *Integrator) Gaps() []*GapError {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gapsLocked()
}

func (g *Integrator) gapsLocked() []*GapError {
	var out []*GapError
	srcs := make([]string, 0, len(g.pending))
	for src := range g.pending {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		q := g.pending[src]
		if len(q) == 0 {
			continue
		}
		next := g.applied[src] + 1
		if q[0].Seq <= next {
			continue // head is applicable (wedged, not gapped)
		}
		age := time.Duration(0)
		if since := g.gapSince[src]; !since.IsZero() {
			age = time.Since(since)
		}
		out = append(out, &GapError{
			Source:   src,
			Expected: next,
			Have:     q[0].Seq,
			Pending:  len(q),
			Age:      age,
		})
	}
	return out
}

// Resync re-requests missing reports for every gap older than the gap
// timeout, through the installed resync hook — which talks to the
// reporting channel only, so the sealed-source query counter stays 0.
// It returns the gaps it acted on and the first hook error.
func (g *Integrator) Resync() ([]*GapError, error) {
	g.mu.Lock()
	hook := g.resync
	var due []*GapError
	for _, gap := range g.gapsLocked() {
		if gap.Age >= g.gapTimeout {
			due = append(due, gap)
		}
	}
	resyncCounter := g.mResyncs
	g.mu.Unlock()
	if hook == nil || len(due) == 0 {
		return due, nil
	}
	var firstErr error
	for _, gap := range due {
		inc(resyncCounter)
		if err := hook(gap.Source, gap.Expected); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("source: resync %s from %d: %w", gap.Source, gap.Expected, err)
		}
	}
	return due, firstErr
}

// Redrive re-attempts every source's buffered notifications, clearing
// wedges whose cause (e.g. a transient refresh failure) has passed. It
// honors ctx: cancellation is checked before each source's drain and
// inside the drain loop before each refresh, and the first non-nil
// ctx.Err() is returned promptly — partially driven sources simply keep
// their remaining notifications buffered for the next call.
func (g *Integrator) Redrive(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	srcs := make([]string, 0, len(g.pending))
	for src := range g.pending {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		if err := ctx.Err(); err != nil {
			return err
		}
		g.drainLocked(ctx, src)
	}
	return ctx.Err()
}

// Wedged returns the sources whose head notification keeps failing to
// refresh, with the latest error per source.
func (g *Integrator) Wedged() map[string]error {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]error, len(g.wedged))
	for s, e := range g.wedged {
		out[s] = e
	}
	return out
}

// DeadLetters returns a copy of the dead-letter list: every
// notification that was refused or whose refresh failed, with causes.
func (g *Integrator) DeadLetters() []DeadLetter {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]DeadLetter(nil), g.dead...)
}

// Flush reports whether all received notifications have been applied
// (no sequence gaps or wedges outstanding).
func (g *Integrator) Flush() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, q := range g.pending {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// Stats returns the number of refreshes applied and source tuple changes
// integrated.
func (g *Integrator) Stats() (refreshes, changes int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.refreshs, g.changed
}

// DeliveryStats returns the delivery-hardening counters: duplicates
// dropped and notifications refused.
func (g *Integrator) DeliveryStats() (duplicates, rejected int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dups, g.rejected
}

// Marks returns a copy of the per-source applied-sequence watermarks.
func (g *Integrator) Marks() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]uint64, len(g.applied))
	for s, q := range g.applied {
		out[s] = q
	}
	return out
}

// Checkpoint durably saves the warehouse state together with the
// applied watermarks (atomic temp-file + rename), then compacts the
// journal: applied records are covered by the snapshot, and buffered
// but unapplied notifications are re-appended so nothing the journal
// was trusted with is lost.
func (g *Integrator) Checkpoint(path string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := snapshot.SaveFileMarks(path, g.w.State(), g.applied); err != nil {
		return err
	}
	if g.jw == nil {
		return nil
	}
	if err := g.jw.Reset(); err != nil {
		return err
	}
	for _, q := range g.pending {
		for _, n := range q {
			if err := g.jw.Append(journal.Record{Source: n.Source, Seq: n.Seq, Update: n.Update}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Recover rebuilds an integrator from its durable state alone — the
// snapshot (with watermarks) plus the journal suffix — exactly the
// restart protocol update independence promises: no source is
// contacted. A missing snapshot means a fresh warehouse; a missing
// journal means nothing to replay. Refresh failures during replay wedge
// the source (visible via Wedged/DeadLetters) instead of aborting
// recovery; journal corruption does abort.
func Recover(comp *core.Complement, snapPath, journalPath string) (*Integrator, error) {
	w := warehouse.New(comp)
	var marks map[string]uint64
	loaded := false
	if snapPath != "" {
		ms, mk, err := snapshot.LoadFileMarks(snapPath)
		switch {
		case err == nil:
			if verr := snapshot.Verify(ms, comp.Resolver()); verr != nil {
				return nil, verr
			}
			w.LoadState(ms)
			marks = mk
			loaded = true
		case os.IsNotExist(err):
			// fresh deployment
		default:
			return nil, err
		}
	}
	if !loaded {
		if err := w.Initialize(comp.Database().NewState()); err != nil {
			return nil, err
		}
	}
	g := NewIntegrator(w, comp)
	for s, q := range marks {
		g.applied[s] = q
	}
	// Replay with an effectively unbounded buffer: every journaled
	// record was accepted once and must not bounce off backpressure.
	g.maxPending = int(^uint(0) >> 1)
	if journalPath != "" {
		if _, _, err := journal.Replay(journalPath, comp.Database(), func(rec journal.Record) error {
			// Offer dedups via the watermarks (exactly-once) and routes
			// refresh failures to the wedge/dead-letter machinery.
			return g.Offer(Notification{Source: rec.Source, Seq: rec.Seq, Update: rec.Update})
		}); err != nil {
			return nil, err
		}
		jw, err := journal.Open(journalPath)
		if err != nil {
			return nil, err
		}
		g.jw = jw
	}
	g.maxPending = defaultMaxPending
	return g, nil
}

// Warehouse returns the maintained warehouse.
func (g *Integrator) Warehouse() *warehouse.Warehouse { return g.w }

// Environment bundles a complete Figure 1 deployment: sources partitioning
// the schema set, the integrator, and the warehouse.
type Environment struct {
	Sources    []*Source
	Integrator *Integrator
}

// NewEnvironment builds sources owning the given relation partitions (one
// slice per source, jointly covering all of D), seals them, computes the
// warehouse from the complement, and wires notifications. The warehouse is
// initialized from the empty state; drive it by applying transactions to
// the sources. The integrator's resync hook is wired to Source.Resend —
// gap recovery re-requests reports through the reporting channel, never
// the (sealed) query interface.
func NewEnvironment(comp *core.Complement, partitions map[string][]string) (*Environment, error) {
	db := comp.Database()
	owned := map[string]string{}
	for srcName, rels := range partitions {
		for _, r := range rels {
			if prev, dup := owned[r]; dup {
				return nil, fmt.Errorf("source: relation %q owned by both %s and %s", r, prev, srcName)
			}
			owned[r] = srcName
		}
	}
	for _, r := range db.Names() {
		if _, ok := owned[r]; !ok {
			return nil, fmt.Errorf("source: relation %q not owned by any source", r)
		}
	}

	w := warehouse.New(comp)
	if err := w.Initialize(db.NewState()); err != nil {
		return nil, err
	}
	integ := NewIntegrator(w, comp)

	env := &Environment{Integrator: integ}
	names := make([]string, 0, len(partitions))
	for n := range partitions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s, err := NewSource(n, db, true, partitions[n]...)
		if err != nil {
			return nil, err
		}
		s.OnUpdate(integ.Receive)
		env.Sources = append(env.Sources, s)
	}
	integ.SetResyncHook(func(src string, from uint64) error {
		s, ok := env.Source(src)
		if !ok {
			return fmt.Errorf("source: resync target %q unknown", src)
		}
		return s.Resend(from)
	})
	return env, nil
}

// Source returns the named source.
func (e *Environment) Source(name string) (*Source, bool) {
	for _, s := range e.Sources {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// TotalQueryAttempts sums ad-hoc query attempts across all sources; an
// update-independent deployment keeps this at zero.
func (e *Environment) TotalQueryAttempts() int64 {
	var n int64
	for _, s := range e.Sources {
		n += s.QueryAttempts()
	}
	return n
}

// CombinedState merges all sources' snapshots into one database state, for
// end-to-end verification in tests.
func (e *Environment) CombinedState() (*catalog.State, error) {
	if len(e.Sources) == 0 {
		return nil, fmt.Errorf("source: environment has no sources")
	}
	db := e.Sources[0].db
	st := db.NewState()
	for _, s := range e.Sources {
		snap := s.Snapshot()
		for _, name := range db.Names() {
			if !s.Owns(name) {
				continue
			}
			r, _ := snap.Relation(name)
			cur, _ := st.Relation(name)
			cur.InsertAll(r)
		}
	}
	return st, nil
}
