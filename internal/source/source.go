// Package source simulates the decoupled warehousing architecture of
// Figure 1: autonomous source databases that apply local transactions and
// merely *report* their changes to an integrator, which maintains the
// warehouse from those reports and the warehouse's own state alone. The
// defining property of the architecture — the integrator cannot query the
// sources — is enforced, not just assumed: a sealed source rejects ad-hoc
// queries and counts the attempts, and the test suite asserts the counter
// stays at zero through arbitrary maintenance schedules.
package source

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/constraint"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/retain"
	"dwcomplement/internal/trace"
)

// Notification is a change report from a source: the update applied, with
// a per-source sequence number for ordered delivery. EmittedUnixNano and
// Traceparent are the lineage carried down the reporting channel: the
// emission timestamp anchors the warehouse's refresh-lag measurement,
// and the traceparent (W3C format, empty when the report was not
// sampled) lets every downstream hop join the report's trace.
type Notification struct {
	Source string
	Seq    uint64
	Update *catalog.Update

	EmittedUnixNano int64
	Traceparent     string
}

// Reporter is the reporting-channel face of a source — the only surface
// the integrator side of Figure 1 may depend on. It carries reports
// forward (OnUpdate) and re-delivers retained ones on request (Resend);
// it deliberately has no query method, so depending on a Reporter can
// never weaken the sealed-source property. *Source implements it
// in-process; remote.Client implements it over HTTP.
type Reporter interface {
	// Name identifies the source in notifications and watermarks.
	Name() string
	// OnUpdate registers the delivery callback for change reports.
	OnUpdate(fn func(Notification))
	// Resend re-delivers every retained report with sequence ≥ from
	// through the registered callback.
	Resend(from uint64) error
}

var _ Reporter = (*Source)(nil)

// DefaultRetain is how many reports a source keeps for Resend until
// SetRetain says otherwise.
const DefaultRetain = 65536

// Source is one autonomous operational database. It owns a subset of the
// schema set D (its local relations), applies transactions locally, and
// reports each applied update. When sealed, ad-hoc queries are rejected —
// the paper's "highly secure or legacy systems" case.
type Source struct {
	name   string
	db     *catalog.Database
	local  relation.AttrSet // relation names owned by this source
	sealed bool

	// reports holds the latest reports at their sequence numbers, for
	// Resend and the wire. Its lock is its own: readers never wait
	// behind an Apply.
	reports *retain.Log[Notification]

	mu      lockrank.Mutex[lockrank.Source]
	deliver lockrank.Mutex[lockrank.SourceDelivery] // taken under mu, held while the subscriber runs
	state   *catalog.State
	notify  func(Notification)
	queries atomic.Int64  // ad-hoc query attempts, sealed or not
	tracer  *trace.Tracer // nil = report emission is untraced
}

// NewSource creates a source owning the given relations of db. The state
// starts empty; sealed sources reject Query calls.
func NewSource(name string, db *catalog.Database, sealed bool, owned ...string) (*Source, error) {
	for _, r := range owned {
		if _, ok := db.Schema(r); !ok {
			return nil, fmt.Errorf("source: %s claims unknown relation %q: %w", name, r, algebra.ErrUnknownRelation)
		}
	}
	return &Source{
		name:    name,
		db:      db,
		local:   relation.NewAttrSet(owned...),
		sealed:  sealed,
		state:   db.NewState(),
		reports: retain.New[Notification](DefaultRetain),
	}, nil
}

// Name returns the source's name.
func (s *Source) Name() string { return s.name }

// Seq returns the sequence number of the last applied transaction.
func (s *Source) Seq() uint64 { return s.reports.Tip() }

// SetRetain keeps only the latest n reports (n ≥ 1), dropping older
// ones at once; Resend below them fails as trimmed.
func (s *Source) SetRetain(n int) { s.reports.SetCap(n) }

// Reports is the source's retained report log, at sequence numbers.
func (s *Source) Reports() *retain.Log[Notification] { return s.reports }

// Sealed reports whether the source rejects ad-hoc queries.
func (s *Source) Sealed() bool { return s.sealed }

// Owns reports whether the source owns the named relation.
func (s *Source) Owns(rel string) bool { return s.local.Has(rel) }

// OnUpdate registers the integrator's notification callback. Reports are
// delivered synchronously in apply order (per source); the integrator
// decides its own queueing.
func (s *Source) OnUpdate(fn func(Notification)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notify = fn
}

// SetTracer attaches a tracer to the source: each subsequently applied
// transaction starts a "source.apply" root span (subject to the
// tracer's sampling rate) whose traceparent rides the emitted report
// down the reporting channel. Call before traffic starts.
func (s *Source) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// Apply runs a local transaction: the update may only touch owned
// relations, is applied under the database's constraints, and is then
// reported. It returns the assigned sequence number.
func (s *Source) Apply(u *catalog.Update) (uint64, error) {
	return s.ApplyContext(context.Background(), u)
}

// ApplyContext is Apply with a caller context: when ctx carries trace
// context (e.g. an inbound traceparent installed by
// trace.ContextWithRemote), the emitted report's span joins the
// caller's trace instead of starting a fresh one.
//
// The report is delivered outside the source's lock, in sequence order:
// apply takes the delivery lock before it releases mu, so the next
// transaction applies and appends its report while this one's subscriber
// runs — an in-process integrator journals and refreshes there — and
// waits only to deliver.
func (s *Source) ApplyContext(ctx context.Context, u *catalog.Update) (uint64, error) {
	for _, name := range u.Touched() {
		if !s.Owns(name) {
			return 0, fmt.Errorf("source: %s cannot update foreign relation %q", s.name, name)
		}
	}
	n, notify, err := s.apply(ctx, u)
	if err != nil {
		return 0, err
	}
	defer s.deliver.Unlock()
	if notify != nil {
		notify(n)
	}
	return n.Seq, nil
}

// apply runs the transaction under mu and returns its report and the
// subscriber to deliver it to, holding the delivery lock on success.
func (s *Source) apply(ctx context.Context, u *catalog.Update) (Notification, func(Notification), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, sp := s.tracer.Start(ctx, "source.apply")
	defer sp.End()
	sp.SetAttr("source", s.name)
	nu := u.Normalize(s.state)
	trial := s.state.Clone()
	if err := nu.Apply(trial); err != nil {
		sp.SetAttr("outcome", "rejected")
		return Notification{}, nil, fmt.Errorf("source: %s rejected transaction: %w", s.name, err)
	}
	// Autonomous sources can only check constraints they can see: keys of
	// owned relations and INDs whose both sides are local. Cross-source
	// constraints are the deployment's responsibility (as in the paper,
	// which assumes the global state consistent).
	if err := s.checkLocal(trial); err != nil {
		sp.SetAttr("outcome", "rejected")
		return Notification{}, nil, fmt.Errorf("source: %s rejected transaction: %w", s.name, err)
	}
	s.state = trial
	seq := s.reports.Tip() + 1 // Apply is the only appender, under mu
	sp.SetAttrInt("seq", int64(seq))
	sp.SetAttrInt("changes", int64(nu.Size()))
	n := Notification{
		Source:          s.name,
		Seq:             seq,
		Update:          nu,
		EmittedUnixNano: time.Now().UnixNano(),
		Traceparent:     sp.Context().Traceparent(),
	}
	s.reports.Append(n)
	s.deliver.Lock()
	return n, s.notify, nil
}

// Resend re-delivers every retained report with sequence number ≥ from
// through the notification callback — the reporting channel of Figure 1,
// not the query interface, so a sealed source can serve gap recovery
// without weakening its seal. Reports older than the retained log (see
// SetRetain) cannot be resent.
func (s *Source) Resend(from uint64) error {
	batch, _, err := s.reports.From(from, 0)
	if errors.Is(err, retain.ErrTrimmed) {
		return fmt.Errorf("source: %s cannot resend from seq %d: history trimmed", s.name, from)
	}
	s.mu.Lock()
	fn := s.notify
	s.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("source: %s has no notification callback", s.name)
	}
	// Deliver outside the lock: the integrator's Receive may take its own
	// lock and, transitively, run a warehouse refresh.
	for _, n := range batch {
		fn(n)
	}
	return nil
}

// checkLocal verifies the locally visible constraints on a trial state.
func (s *Source) checkLocal(st *catalog.State) error {
	for name := range s.local {
		sc, _ := s.db.Schema(name)
		r, _ := st.Relation(name)
		if err := constraint.CheckKey(sc, r); err != nil {
			return err
		}
	}
	for _, d := range s.db.Constraints().INDs() {
		if !s.Owns(d.From) || !s.Owns(d.To) {
			continue
		}
		from, _ := st.Relation(d.From)
		to, _ := st.Relation(d.To)
		attrs := d.X.Sorted()
		if !relation.Project(from, attrs...).SubsetOf(relation.Project(to, attrs...)) {
			return fmt.Errorf("local constraint %s violated", d)
		}
	}
	return nil
}

// Query evaluates an ad-hoc query against the source — the dashed arrow of
// Figure 1. Sealed sources refuse; every attempt is counted either way, so
// tests can assert the integrator never relies on this path.
func (s *Source) Query(e algebra.Expr) (*relation.Relation, error) {
	s.queries.Add(1)
	if s.sealed {
		return nil, fmt.Errorf("source: %s does not permit ad-hoc queries", s.name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := algebra.EvalCtx(nil, e, s.state)
	if err != nil {
		return nil, err
	}
	return r.Clone(), nil
}

// QueryAttempts returns how many ad-hoc queries were attempted against the
// source.
func (s *Source) QueryAttempts() int64 { return s.queries.Load() }

// Snapshot returns a deep copy of the source's current local state, for
// test assertions only (a real integrator never calls this; the test suite
// uses it to compare end states).
func (s *Source) Snapshot() *catalog.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Clone()
}
