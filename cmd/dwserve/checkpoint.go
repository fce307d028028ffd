package main

import (
	"context"
	"errors"
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
// stream — goes through commit, which writes its journal record, refreshes
// it while the record's write-back runs, flushes the record, publishes the
// result, advances the watermarks, records the refresh in every telemetry
// series and, every CheckpointEvery acks, starts a checkpoint. The
// checkpoint does not run on the commit path: under s.mu only the
// published version and the journal offset it stands at are noted, and a
// goroutine writes the snapshot from that version with no server lock
// held, then compacts the journal to the records appended since.

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

// errUnjournaled marks a commit whose journal record could not be made
// durable: nothing was published, and the update may be sent again.
var errUnjournaled = errors.New("journal append failed, update withdrawn")

// commit writes one update's journal record — fixed before the refresh
// starts, which Thm. 4.1 needs alone — refreshes the update while the
// record's write-back runs, then waits for the record's flush, so an ack
// waits for the slower of the two where they overlap. Only when both
// succeeded is the next version (state, watermarks, coordinates, refresh
// aggregates) published in one step, then the replication log (the same
// frame), every refresh series and the checkpoint trigger: no reader ever
// sees a state the journal does not hold. rec carries the coordinates — the
// next LSN under the current epoch on a leader, the leader's own on a
// follower; emitted is the source's emission time in unix nanos, 0 if
// none. Caller holds s.mu.
//
// A failed refresh withdraws the record and is returned. A failed write
// or flush is withdrawn too, degrades, puts the writer's warehouse back to
// the published state and is returned wrapping errUnjournaled: the caller
// fails the ack, or has the report or stream record sent again. Publishing
// a state the journal does not hold would leave a hole in it that a
// restart replays the source's later records over.
func (s *server) commit(ctx context.Context, rec journal.Record, emitted int64) (dwc.RefreshStats, error) {
	prev := s.cur.Load()
	frame, err := journal.Frame(rec)
	if err != nil {
		return dwc.RefreshStats{}, err
	}
	var jerr error
	if s.jw != nil {
		jerr = s.jw.Write(ctx, frame)
	}
	rctx, sp := trace.StartSpan(ctx, "refresh")
	sp.SetAttr("source", rec.Source)
	sp.SetAttrInt("seq", int64(rec.Seq))
	stats, err := s.maintain.RefreshContext(rctx, s.w, rec.Update)
	if err != nil {
		sp.SetAttr("outcome", "error")
	}
	sp.End()
	if err != nil {
		if werr := s.withdraw(ctx, rec); werr != nil {
			return stats, fmt.Errorf("%v; its journal record could not be withdrawn, so a restart replays it unless that refresh fails too: %w", err, werr)
		}
		return stats, err
	}
	if s.jw != nil && jerr == nil {
		jerr = s.jw.Flush(ctx)
	}
	if jerr != nil {
		s.degraded.Store(true)
		if s.withdraw(ctx, rec) != nil {
			jerr = fmt.Errorf("%w (it may have reached the disk: do not retry blindly)", jerr)
		}
		s.w.LoadState(prev.w.State())
		return stats, fmt.Errorf("%w: %w", errUnjournaled, jerr)
	}
	s.plans.pass(prev.gen+1, stats.Update) // before the generation is published: its readers find it tested
	s.publish(func(v *version) {
		v.w, v.gen = s.w.Pin(), v.gen+1
		v.marks = withEntry(v.marks, rec.Source, rec.Seq)
		v.lsn = rec.LSN
		if s.jw != nil {
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
		if err := s.rlog.Append(rec, frame); err != nil {
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
		if n == 0 {
			continue
		}
		c := s.mChanges[name] // a registry lookup builds a label map and a key
		if c == nil {
			c = s.reg.Counter("dw_refresh_changes_total",
				"Warehouse tuples changed by refreshes, per relation.",
				obs.Labels{"relation": name})
			s.mChanges[name] = c
		}
		c.Add(int64(n))
	}

	s.maybeCheckpointLocked()
	// A failed checkpoint keeps the server degraded until one succeeds;
	// acks in between are durable (the journal holds them) and do not
	// clear the flag.
	if !s.ckptFailed {
		s.degraded.Store(false)
	}
	s.lastGoodNano.Store(time.Now().UnixNano())
	return stats, nil
}

// withdraw takes a failed commit's record back out of the journal, counted
// and logged with the request ID; a failure degrades. Caller holds s.mu.
func (s *server) withdraw(ctx context.Context, rec journal.Record) error {
	if s.jw == nil {
		return nil
	}
	id := obs.RequestID(ctx)
	if err := s.jw.Withdraw(); err != nil {
		s.degraded.Store(true)
		s.log.Error("journal withdraw failed; appends are refused until a restart", "id", id, "source", rec.Source, "seq", rec.Seq, "err", err)
		return err
	}
	s.mWithdrawn.Inc()
	s.log.Warn("journal record withdrawn: its commit failed", "id", id, "source", rec.Source, "seq", rec.Seq)
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
		s.mCkpts["skipped_inflight"].Inc()
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
		s.mCkpts["error"].Inc()
		s.sinceCkpt += ck.acks
		s.ckptFailed = true
		s.degraded.Store(true)
		s.log.Error("checkpoint failed; journal keeps every record, next trigger retries", "lsn", ck.lsn, "err", err)
		s.publish(func(v *version) { v.ckptDone = nil })
		return
	}
	s.mCkpts["ok"].Inc()
	s.mCkptPagesEncoded.Add(int64(ck.saved.PagesEncoded))
	s.mCkptPagesReused.Add(int64(ck.saved.PagesReused))
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
