package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/replica"
	"dwcomplement/internal/snapshot"
)

// Replication wiring: the leader-side endpoints (checkpoint shipping,
// journal streaming, promotion, status) and the follower-side loop
// that bootstraps from a shipped snapshot and replays the stream
// through the normal maintenance path. The paper's update-independence
// property is what makes this exact: a warehouse state plus the suffix
// of reported updates determines the next state, so a follower holding
// checkpoint + stream reconstructs the leader bit for bit.

// maxStreamBatch caps one response's record count so a far-behind
// follower pages instead of receiving the whole retained log at once.
const maxStreamBatch = 256

// followPollWait is the long-poll the follower loop requests, and
// followRetryPause its leader link's pause after a failed round (half
// the breaker cooldown instead while the link is quarantined or fenced).
const (
	followPollWait   = 2 * time.Second
	followRetryPause = 100 * time.Millisecond
)

// followerState is the running follower machinery: the stream client
// and the lifetime of its loop goroutine.
type followerState struct {
	client *replica.Client
	cancel context.CancelFunc
	done   chan struct{}
}

// roleView derives the externally reported role: a follower whose
// leader link is quarantined (breaker open) or fenced is a candidate —
// alive and serving reads, waiting for a promotion or a repoint.
func (v *version) roleView() string {
	if v.role == roleFollower && v.follower != nil {
		switch v.follower.client.Health().State {
		case "quarantined", "fenced":
			return roleCandidate
		}
	}
	return v.role
}

// replicaLag is how far this follower trails a healthy leader: zero
// while caught up, else the age of the last caught-up instant.
func (s *server) replicaLag() time.Duration {
	base := s.lagBaseNano.Load()
	if base == 0 {
		return 0
	}
	return time.Since(time.Unix(0, base))
}

// observeLag records the replica-lag gauge: caught up resets the base
// (lag 0), behind reports its age. The exemplar trace ID links a lag
// sample to the apply round that produced it.
func (s *server) observeLag(caughtUp bool, traceID string) {
	if s.mReplLag == nil {
		return
	}
	if caughtUp {
		s.lagBaseNano.Store(0)
		s.mReplLag.SetWithExemplar(0, traceID)
		return
	}
	if s.lagBaseNano.Load() == 0 {
		s.lagBaseNano.Store(time.Now().UnixNano())
	}
	s.mReplLag.SetWithExemplar(s.replicaLag().Seconds(), traceID)
}

// handleReplicaSnapshot ships the published version: the warehouse
// state plus every watermark, with the replication coordinates folded
// into the marks under their reserved keys. A follower that applies
// this body and streams from LSN+1 onward reconstructs the leader.
// Encoding and the network write hold up no commit, however long a
// bootstrap takes.
func (s *server) handleReplicaSnapshot(w http.ResponseWriter, _ *http.Request) {
	v := s.cur.Load()
	w.Header().Set(replica.HeaderEpoch, strconv.FormatUint(v.epoch, 10))
	w.Header().Set(replica.HeaderLSN, strconv.FormatUint(v.lsn, 10))
	w.Header().Set(replica.HeaderRole, v.role)
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := snapshot.SaveMarks(w, v.w.State(), v.snapshotMarks()); err != nil {
		// Headers are gone; all we can do is cut the stream (the client
		// sees a short body and retries) and log.
		s.log.Error("snapshot shipping failed", "err", err)
	}
}

// handleReplicaStream serves retained journal records with LSN ≥ from
// as a bare sequence of journal frames. ?wait=ms long-polls when the
// follower is caught up. 410 Gone tells the follower its position was
// trimmed (re-bootstrap); 416 tells it the position is past this
// replica's tip (divergent history after a failover; re-bootstrap).
func (s *server) handleReplicaStream(w http.ResponseWriter, req *http.Request) {
	from, wait, err := remote.PollParams(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entries, tip, epoch, ferr := s.rlog.From(from, maxStreamBatch)
	if ferr == nil && len(entries) == 0 && wait > 0 {
		s.rlog.Wait(req.Context(), from, wait)
		entries, tip, epoch, ferr = s.rlog.From(from, maxStreamBatch)
	}
	switch {
	case errors.Is(ferr, replica.ErrTrimmed):
		writeError(w, http.StatusGone, ferr)
		return
	case errors.Is(ferr, replica.ErrFuture):
		writeError(w, http.StatusRequestedRangeNotSatisfiable, ferr)
		return
	case ferr != nil:
		writeError(w, http.StatusInternalServerError, ferr)
		return
	}
	w.Header().Set(replica.HeaderEpoch, strconv.FormatUint(epoch, 10))
	w.Header().Set(replica.HeaderTip, strconv.FormatUint(tip, 10))
	w.Header().Set(replica.HeaderRole, s.cur.Load().roleView())
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, e := range entries {
		if _, err := w.Write(e.Frame); err != nil {
			return // connection cut; the follower resumes from its watermark
		}
	}
}

// handleReplicaStatus reports the replication view: role, coordinates,
// log tip, and (on a follower) the leader link's health.
func (s *server) handleReplicaStatus(w http.ResponseWriter, _ *http.Request) {
	v := s.cur.Load()
	body := map[string]any{
		"role":   v.roleView(),
		"epoch":  v.epoch,
		"lsn":    v.lsn,
		"seq":    v.marks[httpSource],
		"tip":    s.rlog.Tip(),
		"sealed": v.role == roleFollower,
	}
	if v.follower != nil {
		body["leader"] = v.follower.client.Health()
		body["replicaLagSec"] = s.replicaLag().Seconds()
	}
	writeJSON(w, http.StatusOK, body)
}

// handlePromote performs a fenced takeover: the replica adopts a new,
// strictly higher epoch, durably checkpoints it BEFORE acknowledging
// (so a crash right after the 200 still recovers as the epoch-N
// leader), resets the replication log at its applied LSN, unseals the
// warehouse and stops following. ?epoch=N names the term explicitly
// (defaults to current+1); an epoch at or below the current one is the
// double-promotion / replayed-promotion case and is refused with 409.
func (s *server) handlePromote(w http.ResponseWriter, req *http.Request) {
	var newEpoch uint64
	if v := req.URL.Query().Get("epoch"); v != "" {
		e, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad epoch %q", v))
			return
		}
		newEpoch = e
	}
	// The promotion checkpoint is synchronous, so one in flight is waited
	// out first.
	s.lockBacklogBelow(0)
	defer s.mu.Unlock()
	v := s.cur.Load()
	if v.role == roleLeader {
		writeError(w, http.StatusConflict, fmt.Errorf("already leader at epoch %d", v.epoch))
		return
	}
	if newEpoch == 0 {
		newEpoch = v.epoch + 1
	}
	if newEpoch <= v.epoch {
		writeError(w, http.StatusConflict, fmt.Errorf("promote to epoch %d refused, current epoch is %d: %w",
			newEpoch, v.epoch, replica.ErrStaleEpoch))
		return
	}
	// The term is checkpointed before it is published: a failure leaves
	// this replica an unchanged follower, so a retry (or a promotion of a
	// different replica) starts from a clean state.
	term := func(v *version) { v.role, v.epoch, v.follower = roleLeader, newEpoch, nil }
	next := *v
	term(&next)
	if err := s.checkpointLocked(&next); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("promotion checkpoint failed: %w", err))
		return
	}
	s.w.Unseal()
	s.publish(term)
	// The new term starts an empty retained log at the applied LSN:
	// followers at exactly this LSN stream straight on; anyone behind
	// gets ErrTrimmed and re-bootstraps from the new lineage's snapshot.
	s.rlog.Reset(v.lsn, newEpoch)
	if v.follower != nil {
		// The loop exits on its canceled context; any in-flight apply
		// re-checks the role under mu and aborts.
		v.follower.cancel()
	}
	s.log.Info("promoted to leader", "epoch", newEpoch, "lsn", v.lsn)
	writeJSON(w, http.StatusOK, map[string]any{"role": roleLeader, "epoch": newEpoch, "lsn": v.lsn})
}

// handleRepoint re-points a follower at a new leader (after a
// failover), preserving the fencing floor and resume cursor: the new
// stream is consumed from the same applied LSN, and ErrFuture from the
// new leader (a divergent suffix) triggers a clean re-bootstrap.
func (s *server) handleRepoint(w http.ResponseWriter, req *http.Request) {
	leader := req.URL.Query().Get("leader")
	if leader == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing leader parameter"))
		return
	}
	v := s.cur.Load()
	if v.role != roleFollower {
		writeError(w, http.StatusConflict, errors.New("not a follower (demotion is not supported; restart with -follow)"))
		return
	}
	if old := v.follower; old != nil {
		old.cancel()
		<-old.done
	}
	s.startFollowing(leader)
	s.log.Info("repointed", "leader", leader)
	writeJSON(w, http.StatusOK, map[string]any{"role": roleFollower, "leader": leader})
}

// StartFollower switches the server into follower mode before the
// listener starts: the warehouse is sealed (mutating routes answer 409
// ErrReadOnlyReplica), the lag gauge registered, and the stream loop
// started against the leader. ctx bounds the loop and every restart a
// later repoint performs.
func (s *server) StartFollower(ctx context.Context, leaderURL string) {
	s.mReplLag = s.reg.ObservedGauge("dw_replica_lag_seconds",
		"Follower catch-up lag behind the leader's replication tip.", nil)
	s.locked(func() {
		s.followCtx = ctx
		s.w.Seal()
		s.publish(func(v *version) { v.role = roleFollower })
	})
	s.startFollowing(leaderURL)
}

// locked runs f under s.mu and unlocks by defer, so a panic in f leaves
// the lock free for the cleanup that runs next.
func (s *server) locked(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// startFollowing builds a stream client for leaderURL and starts the
// follower loop. The client inherits the current epoch as its fencing
// floor and the applied LSN as its cursor.
func (s *server) startFollowing(leaderURL string) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(leaderURL))
	c := replica.NewClient(leaderURL, s.db, remote.Config{Seed: int64(h.Sum64()), PollInterval: followRetryPause})
	if s.followTransport != nil {
		c.SetTransport(s.followTransport)
	}
	var fctx context.Context
	var f *followerState
	s.locked(func() {
		v := s.cur.Load()
		c.SetMinEpoch(v.epoch)
		c.SetCursor(v.lsn)
		var cancel context.CancelFunc
		fctx, cancel = context.WithCancel(s.followCtx)
		f = &followerState{client: c, cancel: cancel, done: make(chan struct{})}
		s.publish(func(v *version) { v.follower = f })
	})
	go s.followLoop(fctx, f)
}

// stopFollower stops the follower loop and waits for it to exit; a
// no-op on a leader.
func (s *server) stopFollower() {
	var f *followerState
	s.locked(func() {
		f = s.cur.Load().follower
		s.publish(func(v *version) { v.follower = nil })
	})
	if f != nil {
		f.cancel()
		<-f.done
	}
}

// followLoop is the follower's life: bootstrap from a shipped
// checkpoint when there is no usable local position, then long-poll
// the stream and apply each batch. Trimmed and divergent positions
// re-bootstrap; transport failures ride the client's breaker (the
// candidate signal); a fenced leader is left alone until a repoint or
// promotion arrives.
func (s *server) followLoop(ctx context.Context, f *followerState) {
	defer close(f.done)
	c := f.client
	needBootstrap := s.cur.Load().lsn == 0 || !s.snapshotLoaded.Load()
	for ctx.Err() == nil {
		if needBootstrap {
			if err := s.bootstrapFollower(ctx, c); err != nil {
				if ctx.Err() != nil {
					return
				}
				s.log.Warn("follower bootstrap failed", "leader", c.Base(), "err", err)
				s.observeLag(false, "")
				c.Pause(ctx)
				continue
			}
			needBootstrap = false
		}
		batch, err := c.FetchBatch(ctx, s.cur.Load().lsn+1, followPollWait)
		switch {
		case ctx.Err() != nil:
			return
		case errors.Is(err, replica.ErrTrimmed), errors.Is(err, replica.ErrFuture):
			// Behind the retained window, or holding a divergent suffix
			// from a deposed leader: either way the stream cannot continue
			// from here — re-ship the snapshot.
			needBootstrap = true
			continue
		case err != nil:
			// Unreachable (breaker counts toward quarantine → candidate)
			// or fenced; lag keeps growing until contact resumes.
			s.observeLag(false, "")
			c.Pause(ctx)
			continue
		}
		s.applyBatch(ctx, c, batch)
	}
}

// bootstrapFollower ships the leader's checkpoint and installs it:
// state, watermarks and coordinates all move together, and the result
// is durably checkpointed locally so a follower crash recovers without
// re-shipping.
func (s *server) bootstrapFollower(ctx context.Context, c *replica.Client) error {
	ship, err := c.FetchSnapshot(ctx)
	if err != nil {
		return err
	}
	if err := dwc.VerifySnapshot(ship.State, s.comp.Resolver()); err != nil {
		return err
	}
	// The synchronous checkpoint below empties the journal, so one in
	// flight finishes first.
	s.lockBacklogBelow(0)
	defer s.mu.Unlock()
	if s.cur.Load().role != roleFollower {
		return nil // promoted while the shipment was in flight
	}
	s.w.LoadState(ship.State)
	s.plans.reset(s.cur.Load().gen + 1) // a state replaced with no update to test
	s.publish(func(v *version) {
		v.w, v.gen = s.w.Pin(), v.gen+1
		v.marks = ship.Marks
		v.epoch = max(v.epoch, ship.Epoch)
		v.lsn = ship.LSN
	})
	v := s.cur.Load()
	c.SetMinEpoch(v.epoch)
	c.SetCursor(v.lsn)
	s.rlog.Reset(v.lsn, v.epoch)
	if !s.snapshotLoaded.Swap(true) {
		s.boot.mark("bootstrap") // the first state of a follower that booted without one
	}
	// A failure is logged and flagged by checkpointLocked; the shipped
	// state is published either way and the next trigger retries.
	if err := s.checkpointLocked(v); err == nil {
		s.degraded.Store(false)
	}
	s.lastGoodNano.Store(time.Now().UnixNano())
	s.log.Info("bootstrapped from leader checkpoint", "leader", c.Base(), "epoch", v.epoch, "lsn", v.lsn)
	return nil
}

// applyBatch replays one stream batch through the maintenance path.
// Exactly-once is the composition of two checks: records are consumed
// in LSN order (resume cursor), and a record only refreshes when its
// Seq is above its source's watermark — overlap from bootstrap races,
// retries, torn streams and repoints is skipped, LSN gaps abort the
// batch so the stream is re-requested. A source's Seq may skip: the
// leader streams no record for a report it set aside.
func (s *server) applyBatch(ctx context.Context, c *replica.Client, b *replica.Batch) {
	actx, sp := s.tracer.Start(ctx, "replica.apply")
	defer sp.End()
	traceID := ""
	if sp.Recording() {
		traceID = sp.Context().TraceID.String()
	}
	s.lockCommit()
	defer s.mu.Unlock()
	if s.cur.Load().role != roleFollower {
		return // promoted while the fetch was in flight
	}
	// A higher response epoch is a legitimate new term on the same
	// lineage (our leader was itself promoted): adopt it and raise the
	// fencing floor so the deposed term can never serve us again.
	if b.Epoch > s.cur.Load().epoch {
		s.publish(func(v *version) { v.epoch = b.Epoch })
		c.SetMinEpoch(b.Epoch)
	}
	applied := 0
	for _, rec := range b.Records {
		if ctx.Err() != nil {
			return
		}
		v := s.cur.Load()
		if rec.LSN <= v.lsn {
			continue // overlap with already-applied stream
		}
		if rec.LSN != v.lsn+1 {
			break // gap: refetch from the cursor
		}
		if s.backlogged(v) {
			break // the next round waits in lockCommit, then refetches from the cursor
		}
		if rec.Seq <= v.marks[rec.Source] {
			// Already covered by the shipped checkpoint: advance the
			// cursor without re-applying — the exactly-once dedup.
			s.publish(func(v *version) { v.lsn = rec.LSN })
			continue
		}
		// Committed with the leader's coordinates, so recovery resumes the
		// stream from the right LSN. A record that fails, in its refresh or
		// its journal append, is fetched again from the cursor. The refresh
		// needs the writer's warehouse writable.
		s.w.Unseal()
		_, err := s.commit(actx, rec, 0)
		s.w.Seal()
		if err != nil {
			sp.SetAttr("outcome", "error")
			s.degraded.Store(true)
			s.log.Error("replica refresh failed; serving stale", "source", rec.Source, "seq", rec.Seq, "err", err)
			return
		}
		applied++
	}
	lsn := s.cur.Load().lsn
	sp.SetAttrInt("applied", int64(applied))
	sp.SetAttrInt("lsn", int64(lsn))
	c.SetCursor(lsn)
	s.observeLag(lsn >= b.Tip && !b.Torn, traceID)
}
