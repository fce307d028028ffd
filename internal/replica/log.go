package replica

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dwcomplement/internal/journal"
	"dwcomplement/internal/lockrank"
	"dwcomplement/internal/retain"
)

// defaultRetain bounds the in-memory log when NewLog is given no cap.
const defaultRetain = 1024

// Entry is one retained log position: the record's replication
// coordinates plus its pre-framed journal bytes, encoded once at
// append so serving N followers costs no re-encoding.
type Entry struct {
	LSN    uint64
	Epoch  uint64
	Source string
	Seq    uint64
	Frame  []byte // journal.EncodeRecord output
}

// Log is the leader's retained replication log: a retain.Log of
// committed journal records at their LSNs, plus the leadership term
// they were committed under. Followers page through it with From and
// long-poll for fresh records with Wait; a follower that falls below
// the retained window is told to re-bootstrap (ErrTrimmed). Safe for
// concurrent use.
type Log struct {
	ring *retain.Log[Entry]

	mu    lockrank.Mutex[lockrank.ReplicaLog] // orders appends, resets and reads against the epoch
	epoch uint64
}

// NewLog returns an empty log retaining at most n records
// (defaultRetain when ≤ 0).
func NewLog(n int) *Log {
	if n <= 0 {
		n = defaultRetain
	}
	return &Log{ring: retain.New[Entry](n)}
}

// Reset installs the log's position without any retained records: the
// next Append must carry LSN base+1. Called at boot (resume from the
// recovered LSN) and at promotion (adopt the new epoch at the applied
// LSN).
func (l *Log) Reset(base, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.epoch = epoch
	l.ring.Reset(base)
}

// Epoch returns the current leadership term.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Tip returns the highest retained (or trimmed) LSN.
func (l *Log) Tip() uint64 { return l.ring.Tip() }

// Append retains one committed record, framed by journal.Frame (the bytes
// its journal append wrote, so serving followers costs no re-encoding).
// The record must already carry its coordinates: LSN exactly tip+1 (the
// caller assigns LSNs under the same lock that serializes commits) and
// the log's current epoch.
func (l *Log) Append(rec journal.Record, frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := l.ring.Tip() + 1; rec.LSN != want {
		return fmt.Errorf("replica: append LSN %d, want %d", rec.LSN, want)
	}
	if rec.Epoch != l.epoch {
		return fmt.Errorf("replica: append epoch %d, log epoch %d", rec.Epoch, l.epoch)
	}
	l.ring.Append(Entry{LSN: rec.LSN, Epoch: rec.Epoch, Source: rec.Source, Seq: rec.Seq, Frame: frame})
	return nil
}

// From returns up to max retained entries with LSN ≥ from, plus the
// current tip and epoch. from ≤ base (and base > 0) is ErrTrimmed;
// from past tip+1 is ErrFuture — both tell the follower to
// re-bootstrap. from == tip+1 returns an empty batch (caller long-polls
// via Wait).
func (l *Log) From(from uint64, max int) (entries []Entry, tip, epoch uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	entries, tip, err = l.ring.From(from, max)
	switch {
	case errors.Is(err, retain.ErrTrimmed):
		err = ErrTrimmed
	case errors.Is(err, retain.ErrFuture):
		err = ErrFuture
	}
	return entries, tip, l.epoch, err
}

// Wait blocks until a record with LSN ≥ from is retained, the wait
// elapses, or ctx is done — the long-poll primitive of the stream
// endpoint.
func (l *Log) Wait(ctx context.Context, from uint64, wait time.Duration) {
	l.ring.Wait(ctx, from, wait)
}
