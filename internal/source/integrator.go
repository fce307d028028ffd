package source

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/warehouse"
)

// SetAsideCap is how many set-aside reports a SetAsides keeps.
const SetAsideCap = 64

// SetAside is a report whose refresh failed: its source's watermark moved
// past it and it was never applied. A refresh is a function of the
// warehouse state and the update alone, so a retry would fail the same
// way.
type SetAside struct {
	Source string    `json:"source"`
	Seq    uint64    `json:"seq"`
	Reason string    `json:"reason"`
	Time   time.Time `json:"time"`
}

// SetAsides is the capped record of set-aside reports: the latest
// SetAsideCap of them, oldest first, and how many there have been. A value
// is never modified, so it can be published and read without a lock.
type SetAsides struct {
	Recent []SetAside `json:"recent"`
	Total  int        `json:"total"`
}

// With returns l with report n added, set aside for err, dropping the
// oldest record past the cap.
func (l SetAsides) With(n Notification, err error) SetAsides {
	keep := l.Recent[max(0, len(l.Recent)+1-SetAsideCap):]
	recent := append(make([]SetAside, 0, len(keep)+1), keep...)
	recent = append(recent, SetAside{Source: n.Source, Seq: n.Seq, Reason: err.Error(), Time: time.Now()})
	return SetAsides{Recent: recent, Total: l.Total + 1}
}

// Integrator is the component between sources and warehouse in Figure 1,
// in memory: it receives change notifications and maintains the warehouse
// incrementally and update-independently. It holds no source connection
// beyond the notification channel — by construction it cannot issue the
// dashed-arrow queries.
//
// It follows the delivery rules of the server's commit path: a report at
// or below its source's watermark is a redelivery, dropped and counted; the
// next report is refreshed; a later one is refused. It buffers nothing:
// every in-process sender delivers in order (Source under its delivery
// lock, remote.Client by its cursor) and refills a refused range through
// Resend. A report whose refresh fails is set aside (see SetAside).
type Integrator struct {
	w *warehouse.Warehouse
	m *maintain.Maintainer

	mu        lockrank.Mutex[lockrank.Integrator]
	applied   map[string]uint64 // last sequence number passed per source
	setAside  SetAsides
	refreshes int
	changed   int
	dups      int
	rejected  int
}

// NewIntegrator wires an integrator to the warehouse. Registration with
// sources is the caller's job (src.OnUpdate(integ.Receive)).
func NewIntegrator(w *warehouse.Warehouse, comp *core.Complement) *Integrator {
	return &Integrator{w: w, m: maintain.NewMaintainer(comp), applied: make(map[string]uint64)}
}

// Receive is Offer as a delivery callback: a refused report is counted in
// DeliveryStats, and its sender's Resend delivers it again.
func (g *Integrator) Receive(n Notification) { _ = g.Offer(n) }

// Offer delivers one report. A report with Seq at or below its source's
// watermark is dropped and counted as a duplicate; one past the next
// expected is refused with an error naming that sequence number. The next
// report is refreshed, and its watermark moves to it whether the refresh
// succeeds or the report is set aside.
func (g *Integrator) Offer(n Notification) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	next := g.applied[n.Source] + 1
	switch {
	case n.Seq < next:
		g.dups++
		return nil
	case n.Seq > next:
		g.rejected++
		return fmt.Errorf("source: %s seq %d refused: expected seq %d", n.Source, n.Seq, next)
	}
	if _, err := g.m.RefreshContext(context.Background(), g.w, n.Update); err != nil {
		g.setAside = g.setAside.With(n, err)
	} else {
		g.refreshes++
		g.changed += n.Update.Size()
	}
	g.applied[n.Source] = n.Seq
	return nil
}

// SetAside returns the record of reports set aside because their refresh
// failed.
func (g *Integrator) SetAside() SetAsides {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.setAside
}

// Stats returns the number of refreshes applied and source tuple changes
// integrated.
func (g *Integrator) Stats() (refreshes, changes int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.refreshes, g.changed
}

// DeliveryStats returns the delivery counters: duplicates dropped and
// reports refused past a gap.
func (g *Integrator) DeliveryStats() (duplicates, rejected int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dups, g.rejected
}

// Marks returns a copy of the per-source watermarks.
func (g *Integrator) Marks() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]uint64, len(g.applied))
	for s, q := range g.applied {
		out[s] = q
	}
	return out
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
// the sources.
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
