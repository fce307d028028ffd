package main

import (
	"context"
	"fmt"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/chaos"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/obs"
	"dwcomplement/internal/replica"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/trace"
)

// The commit path and the checkpoint behind it. Every applied update —
// POST /update, a remote source's report, a record of the leader's
// stream — goes through commitLocked, which journals it, advances the
// watermarks, records the refresh in every telemetry series and, every
// CheckpointEvery acks, starts a checkpoint. The checkpoint does not run
// on the commit path: under s.mu only the published version and the
// journal offset it stands at are noted, and a goroutine writes the
// snapshot from that version with no server lock held, then compacts the
// journal to the records appended since.

// backlogFactor bounds the journal: a commit that finds this many times
// CheckpointEvery un-checkpointed records while a checkpoint is still in
// flight waits for it. It caps the journal suffix, recovery's replay and
// the one warehouse version the checkpointer pins.
const backlogFactor = 8

// snapshotMarks is what a snapshot of v records beside the state: the
// source watermarks, with the replication coordinates under their reserved
// "~" keys — so a checkpoint pins the epoch and LSN it stands at, the
// durability promote relies on for fencing.
func (v *version) snapshotMarks() map[string]uint64 {
	return replica.WithMetaMarks(v.marks, v.epoch, v.lsn)
}

// checkpoint is one checkpoint of a version, from encode to compaction.
type checkpoint struct {
	*version
	jw         *journal.Writer
	journalEnd int64 // journal offset at the version: everything before it is covered
	acks       int   // acks the version covers since the previous checkpoint
	dur        time.Duration
	saved      snapshot.SaveStats
}

// lockBacklogBelow takes s.mu once no checkpoint is in flight or fewer
// than limit journal records await one. A limit of 0 therefore waits for
// any checkpoint in flight: since one only starts under s.mu, none runs
// while the caller holds the lock.
func (s *server) lockBacklogBelow(limit int) {
	for {
		s.mu.Lock()
		v := s.cur.Load()
		if v.ckptDone == nil || v.journalRecs < limit {
			return
		}
		s.mu.Unlock()
		<-v.ckptDone
	}
}

// backlogCap is the number of un-checkpointed journal records at which
// commits wait for the checkpoint in flight.
func (s *server) backlogCap() int { return backlogFactor * s.cfg.CheckpointEvery }

// lockCommit takes s.mu for a commit, first waiting out a checkpoint the
// journal has run backlogCap records ahead of.
func (s *server) lockCommit() { s.lockBacklogBelow(s.backlogCap()) }

// backlogged reports whether lockCommit would wait at v.
func (s *server) backlogged(v *version) bool {
	return v.ckptDone != nil && v.journalRecs >= s.backlogCap()
}

// drainCheckpoint returns once no checkpoint is in flight.
func (s *server) drainCheckpoint() {
	s.lockBacklogBelow(0)
	s.mu.Unlock()
}

// commitLocked makes one refreshed update durable, visible and accounted
// for: journal at commit, then the next version — the refreshed state,
// watermarks, replication coordinates and refresh aggregates — published
// in one step, the replication log, every refresh series, and the
// checkpoint trigger. Publishing comes after the append, so no reader
// ever sees a state the journal does not hold; until then readers keep
// answering from the previous version, which the refresh did not touch.
// rec carries the coordinates the update commits at — the next LSN under
// the current epoch on a leader, the leader's own on a follower. emitted
// is the source's emission time in unix nanos, 0 when the update has
// none. Caller holds s.mu and has run the refresh.
//
// The only error is a failed journal append of an update nobody can send
// again (the leader's own HTTP API): the writer's warehouse is put back
// to the published state, nothing has been advanced, and the caller must
// fail the ack. Reports and stream records are re-fetchable — after a
// crash the client rewinds to the checkpointed watermark and the sender's
// retained log refills the hole — so there a failed append only degrades.
func (s *server) commitLocked(ctx context.Context, rec journal.Record, stats dwc.RefreshStats, emitted int64) error {
	prev := s.cur.Load()
	journaled := true
	if s.jw != nil {
		if err := s.jw.AppendContext(ctx, rec); err != nil {
			s.degraded.Store(true)
			if prev.role == roleLeader && rec.Source == httpSource {
				s.w.LoadState(prev.w.State())
				return err
			}
			journaled = false
			s.log.Error("journal append failed; record is re-fetchable", "source", rec.Source, "seq", rec.Seq, "err", err)
		}
	}
	s.publish(func(v *version) {
		v.w = s.w.Pin()
		v.marks = withEntry(v.marks, rec.Source, rec.Seq)
		v.lsn = rec.LSN
		if s.jw != nil && journaled {
			v.journalRecs++
		}
		v.refreshes++
		v.refreshWall += stats.Wall
		if stats.Eval != nil {
			v.refreshStats.Add(*stats.Eval)
		}
		v.lastRefresh = refreshSummary{
			Spans:               stats.Spans,
			Changed:             stats.Changed,
			RestrictedLookups:   stats.RestrictedLookups,
			FullReconstructions: stats.FullReconstructions,
			CopiedBytes:         stats.CopiedBytes,
			WallNs:              stats.Wall.Nanoseconds(),
		}
	})
	s.sinceCkpt++
	if prev.role == roleLeader {
		if err := s.rlog.Append(rec); err != nil {
			// LSNs are assigned under mu, so this cannot misalign; log rather
			// than fail the acknowledged update.
			s.log.Error("replication log append failed", "source", rec.Source, "err", err)
		}
	}

	// Refresh lag: report emitted at the source → delta visible in the
	// views (which it is since the publish above). The histogram sample
	// carries the trace ID as an exemplar, so a slow bucket links straight
	// to a full lineage trace.
	lag := time.Duration(-1)
	if emitted > 0 {
		lag = time.Since(time.Unix(0, emitted))
		exemplar := ""
		if sp := trace.FromContext(ctx); sp.Recording() {
			exemplar = sp.Context().TraceID.String()
			sp.SetAttrInt("lagUs", lag.Microseconds())
		}
		s.mRefreshLag.ObserveWithExemplar(lag.Seconds(), exemplar)
	}
	s.mRefreshes.Inc()
	s.mRefreshDur.Observe(stats.Wall.Seconds())
	s.mRestricted.Add(stats.RestrictedLookups)
	s.mFullRecon.Add(stats.FullReconstructions)
	s.mCopied.Add(stats.CopiedBytes)
	s.observeMaintenance(stats, lag)
	for name, n := range stats.Changed {
		if n > 0 {
			s.reg.Counter("dw_refresh_changes_total",
				"Warehouse tuples changed by refreshes, per relation.",
				obs.Labels{"relation": name}).Add(int64(n))
		}
	}

	s.maybeCheckpointLocked()
	// A failed checkpoint keeps the server degraded until one succeeds;
	// acks in between are durable (the journal holds them) and do not
	// clear the flag. Nor does an update the journal does not hold.
	if journaled && !s.ckptFailed {
		s.degraded.Store(false)
	}
	s.lastGoodNano.Store(time.Now().UnixNano())
	return nil
}

// maybeCheckpointLocked starts a background checkpoint of the published
// version when CheckpointEvery acks have accumulated since the last. One
// runs at a time: while it does the trigger is skipped, and fires on the
// first ack after it has finished. Caller holds s.mu.
func (s *server) maybeCheckpointLocked() {
	if s.cfg.SnapshotDir == "" || s.sinceCkpt < s.cfg.CheckpointEvery {
		return
	}
	v := s.cur.Load()
	if v.ckptDone != nil {
		s.countCheckpoint("skipped_inflight")
		return
	}
	ck, err := s.newCheckpointLocked(v)
	if err != nil {
		s.finishCheckpointLocked(ck, err)
		return
	}
	done := make(chan struct{})
	s.publish(func(v *version) { v.ckptDone = done })
	go func() {
		err := s.persist(ck)
		s.mu.Lock()
		s.finishCheckpointLocked(ck, err)
		s.mu.Unlock()
		close(done)
	}()
}

// checkpointLocked checkpoints v synchronously, for the callers that need
// it durable before they return: shutdown, a follower's bootstrap, and
// promotion — which checkpoints the version it is about to publish. The
// journal is left empty. Caller holds s.mu, taken with
// lockBacklogBelow(0) so that no background checkpoint is in flight.
func (s *server) checkpointLocked(v *version) error {
	if s.cfg.SnapshotDir == "" || !s.snapshotLoaded.Load() {
		return nil // volatile, or a follower stopped before its first snapshot arrived
	}
	ck, err := s.newCheckpointLocked(v)
	if err == nil {
		err = s.persist(ck)
	}
	s.finishCheckpointLocked(ck, err)
	return err
}

// newCheckpointLocked notes where the journal stands at v, the version
// the checkpoint will persist: every record in it is covered by v. Caller
// holds s.mu.
func (s *server) newCheckpointLocked(v *version) (*checkpoint, error) {
	ck := &checkpoint{version: v, jw: s.jw, acks: s.sinceCkpt}
	s.sinceCkpt = 0
	if ck.jw != nil {
		end, err := ck.jw.Offset()
		if err != nil {
			return ck, fmt.Errorf("checkpoint: journal offset: %w", err)
		}
		ck.journalEnd = end
	}
	return ck, nil
}

// persist writes the version's snapshot (temp file → fsync → rename) and
// the maintenance EWMAs, then compacts the journal to the records appended
// after it. It takes no server lock, and it encodes only the pages written
// since some earlier version's snapshot — this checkpointer's or a shipped
// one (handleReplicaSnapshot) — encoded them: the sections are cached with
// the pages the versions share. A crash at any point leaves the
// old snapshot with the full journal, the new snapshot with the full
// journal, or the new snapshot with the suffix; replay skips records at
// or below the snapshot's marks, so each recovers to exactly the
// acknowledged updates.
func (s *server) persist(ck *checkpoint) (err error) {
	_, sp := s.tracer.Start(context.Background(), "checkpoint")
	defer sp.End()
	start := time.Now()
	defer func() {
		ck.dur = time.Since(start)
		if err != nil {
			sp.SetAttr("outcome", "error")
		}
	}()
	sp.SetAttrInt("lsn", int64(ck.lsn))
	sp.SetAttrInt("relations", int64(len(ck.w.State())))
	st, err := snapshot.SaveFileMarksTimed(checkpointPath(s.cfg.SnapshotDir), ck.w.State(), ck.snapshotMarks())
	if err != nil {
		return fmt.Errorf("checkpoint snapshot: %w", err)
	}
	ck.saved = st
	sp.SetAttrInt("bytes", st.Bytes)
	sp.SetAttrInt("pagesEncoded", int64(st.PagesEncoded))
	sp.SetAttrInt("pagesReused", int64(st.PagesReused))
	sp.SetAttrInt("encodeUs", st.Encode.Microseconds())
	sp.SetAttrInt("fsyncUs", st.Sync.Microseconds())
	// The maintenance EWMAs ride along; they are advisory (planner input),
	// so a failed save degrades estimates, not durability.
	if err := s.mstats.Save(maintstatsPath(s.cfg.SnapshotDir)); err != nil {
		s.log.Warn("maintenance stats save failed", "err", err)
	}
	if ck.jw == nil {
		return nil
	}
	if err := chaos.Point("checkpoint.compact"); err != nil {
		return err
	}
	compactStart := time.Now()
	if err := ck.jw.DropPrefix(ck.journalEnd); err != nil {
		return fmt.Errorf("checkpoint journal compaction: %w", err)
	}
	sp.SetAttrInt("compactUs", time.Since(compactStart).Microseconds())
	return nil
}

// finishCheckpointLocked books a checkpoint's outcome. A failure costs no
// ack — the journal still holds every record — so it only degrades, and
// the acks it covered count toward the trigger again: the next one
// retries. Caller holds s.mu.
func (s *server) finishCheckpointLocked(ck *checkpoint, err error) {
	s.mCkptDur.Observe(ck.dur.Seconds())
	if err != nil {
		s.countCheckpoint("error")
		s.sinceCkpt += ck.acks
		s.ckptFailed = true
		s.degraded.Store(true)
		s.log.Error("checkpoint failed; journal keeps every record, next trigger retries", "lsn", ck.lsn, "err", err)
		s.publish(func(v *version) { v.ckptDone = nil })
		return
	}
	s.countCheckpoint("ok")
	for kind, n := range map[string]int{"encoded": ck.saved.PagesEncoded, "reused": ck.saved.PagesReused} {
		s.reg.Counter("dw_checkpoint_pages_total",
			"Row pages in completed checkpoints: encoded because they were written since a snapshot last held them, or reused from the cache kept with the page.",
			obs.Labels{"kind": kind}).Add(int64(n))
	}
	if s.ckptFailed {
		s.ckptFailed = false
		s.degraded.Store(false)
	}
	s.publish(func(v *version) {
		v.ckptDone = nil
		v.journalRecs -= ck.journalRecs
		v.lastCkptLSN = ck.lsn
		v.lastCkptDur = ck.dur
		v.lastCkptSaved = ck.saved
	})
}

func (s *server) countCheckpoint(outcome string) {
	s.reg.Counter("dw_checkpoints_total",
		"Checkpoints by outcome: ok, error, or skipped_inflight (the trigger fired while one was running).",
		obs.Labels{"outcome": outcome}).Inc()
}
