package main

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"

	"dwcomplement/internal/admission"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/source"
)

// AttachRemote registers a remote source client: its reports flow into
// the warehouse through the same incremental maintenance (and journal)
// as HTTP updates, keyed by the source's own sequence numbers. Attach
// the clients, then call startRemotes.
func (s *server) AttachRemote(c *remote.Client) {
	s.mu.Lock()
	s.publish(func(v *version) { v.remotes = withEntry(v.remotes, c.Name(), c) })
	s.mu.Unlock()
	c.SetMetrics(s.reg)
	c.SetTracer(s.tracer)
	c.OnUpdate(s.applyRemote)
}

// startRemotes rewinds every client to its recovered watermark (so
// reports applied before a restart are not re-fetched, and reports
// after it are) and starts the poll loops.
func (s *server) startRemotes(ctx context.Context) {
	v := s.cur.Load()
	for name, c := range v.remotes {
		c.Rewind(v.marks[name])
		c.Start(ctx)
	}
}

// stopRemotes stops every poll loop and waits for them to exit.
func (s *server) stopRemotes() {
	for _, c := range s.cur.Load().remotes {
		c.Close()
	}
}

// applyRemote is the delivery callback for remote source reports: dedup
// by the per-source watermark (retries and rewinds all cause benign
// redelivery), refresh, commit. A report whose journal record could not
// be made durable rewinds the client, so it is fetched again. A report
// whose refresh fails is set aside: a refresh is a function of the state
// and the update, so fetching it again would fail the same way. Its
// watermark moves past it, with no journal record and no replication log
// entry, and /stats lists it.
func (s *server) applyRemote(n source.Notification) {
	// Report delivery passes admission like everything else, but through
	// Wait — the never-shed variant. Under overload it is only deferred
	// behind the Delivery-priority queue (which outranks every query),
	// never refused: shedding maintenance would trade bounded staleness
	// for unbounded divergence. Acquired BEFORE s.mu so the lock order
	// (admission → mu) matches the update handler.
	release, err := s.adm.Wait(context.Background(), admission.Delivery, deliveryWeight)
	if err == nil {
		defer release()
	}
	s.lockCommit()
	defer s.mu.Unlock()
	// Continue the report's trace (source.apply → remote.attempt →
	// here); the refresh and journal.append spans below nest
	// under this one, completing the lineage.
	ctx, sp := s.tracer.StartRemote(context.Background(), n.Traceparent, "integrator.deliver")
	defer sp.End()
	sp.SetAttr("source", n.Source)
	sp.SetAttrInt("seq", int64(n.Seq))
	v := s.cur.Load()
	applied := v.marks[n.Source]
	if n.Seq <= applied {
		sp.SetAttr("outcome", "duplicate")
		return // duplicate redelivery
	}
	if n.Seq != applied+1 {
		// Sequence gap (possible after a restart races the poll loop):
		// rewind so the missing range is re-fetched in order.
		sp.SetAttr("outcome", "gap")
		if c := v.remotes[n.Source]; c != nil {
			c.Rewind(applied)
		}
		return
	}
	// The record carries its replication coordinates so followers receive
	// remote reports through the same stream as HTTP updates.
	rec := journal.Record{Source: n.Source, Seq: n.Seq, Update: n.Update, Epoch: v.epoch, LSN: v.lsn + 1}
	_, err = s.commit(ctx, rec, n.EmittedUnixNano)
	switch {
	case err == nil:
	case errors.Is(err, errUnjournaled):
		sp.SetAttr("outcome", "error")
		s.log.Error("remote report not journaled; fetching it again", "source", n.Source, "seq", n.Seq, "err", err)
		if c := v.remotes[n.Source]; c != nil {
			c.Rewind(applied)
		}
	default:
		sp.SetAttr("outcome", "set_aside")
		s.log.Error("remote report set aside: its refresh fails", "source", n.Source, "seq", n.Seq, "err", err)
		s.publish(func(v *version) {
			v.marks = withEntry(v.marks, n.Source, n.Seq)
			v.setAside = v.setAside.With(n, err)
		})
	}
}

// remoteHealth returns every attached client's health view, sorted by
// name, plus whether any of them is not fully healthy.
func (v *version) remoteHealth() ([]remote.Health, bool) {
	hs := make([]remote.Health, 0, len(v.remotes))
	anyDegraded := false
	for _, c := range v.remotes {
		h := c.Health()
		if h.State != "healthy" {
			anyDegraded = true
		}
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Source < hs[j].Source })
	return hs, anyDegraded
}

// stalenessHeader builds the X-DW-Staleness value: the warehouse's own
// staleness first (when degraded), then name=seconds for every remote
// source whose report stream is stale, then leader=seconds on a replica
// whose leader link is stale. Empty when everything is fresh.
func (s *server) stalenessHeader(v *version) string {
	var parts []string
	if st := s.staleness(); st > 0 {
		parts = append(parts, strconv.FormatFloat(st.Seconds(), 'f', 3, 64))
	}
	hs, _ := v.remoteHealth()
	for _, h := range hs {
		if h.StalenessSec > 0 {
			parts = append(parts, h.Source+"="+strconv.FormatFloat(h.StalenessSec, 'f', 3, 64))
		}
	}
	if f := v.follower; f != nil {
		if h := f.client.Health(); h.StalenessSec > 0 {
			parts = append(parts, "leader="+strconv.FormatFloat(h.StalenessSec, 'f', 3, 64))
		}
	}
	return strings.Join(parts, ", ")
}
