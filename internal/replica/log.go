package replica

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dwcomplement/internal/journal"
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

// Log is the leader's retained replication log: a bounded ring of
// committed journal records covering the LSN interval (base, tip].
// Followers page through it with From and long-poll for fresh records
// with Wait; a follower that falls below base is told to re-bootstrap
// (ErrTrimmed). Safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	cond   *sync.Cond
	base   uint64 // LSN of the last record trimmed away (0 = none)
	epoch  uint64
	ring   []Entry // up to retain entries, LSNs base+1..tip from ring[head] on, wrapping
	head   int
	retain int
}

// NewLog returns an empty log retaining at most retain records
// (defaultRetain when ≤ 0).
func NewLog(retain int) *Log {
	if retain <= 0 {
		retain = defaultRetain
	}
	l := &Log{retain: retain}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Reset installs the log's position without any retained records: the
// next Append must carry LSN base+1. Called at boot (resume from the
// recovered LSN) and at promotion (adopt the new epoch at the applied
// LSN).
func (l *Log) Reset(base, epoch uint64) {
	l.mu.Lock()
	l.base = base
	l.epoch = epoch
	l.ring, l.head = nil, 0
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Epoch returns the current leadership term.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Tip returns the highest retained (or trimmed) LSN.
func (l *Log) Tip() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tipLocked()
}

func (l *Log) tipLocked() uint64 {
	return l.base + uint64(len(l.ring))
}

// Append retains one committed record, framed by journal.Frame (the bytes
// its journal append wrote, so serving followers costs no re-encoding).
// The record must already carry its coordinates: LSN exactly tip+1 (the
// caller assigns LSNs under the same lock that serializes commits) and
// the log's current epoch. Once the log is full the oldest record's slot
// is reused — an append costs the same at any retention; followers that
// still need a trimmed record re-bootstrap from a checkpoint.
func (l *Log) Append(rec journal.Record, frame []byte) error {
	l.mu.Lock()
	if want := l.tipLocked() + 1; rec.LSN != want {
		l.mu.Unlock()
		return fmt.Errorf("replica: append LSN %d, want %d", rec.LSN, want)
	}
	if rec.Epoch != l.epoch {
		l.mu.Unlock()
		return fmt.Errorf("replica: append epoch %d, log epoch %d", rec.Epoch, l.epoch)
	}
	e := Entry{LSN: rec.LSN, Epoch: rec.Epoch, Source: rec.Source, Seq: rec.Seq, Frame: frame}
	if len(l.ring) < l.retain {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.head] = e
		l.head = (l.head + 1) % len(l.ring)
		l.base++
	}
	l.mu.Unlock()
	l.cond.Broadcast()
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
	tip, epoch = l.tipLocked(), l.epoch
	if from == 0 {
		from = 1
	}
	if l.base > 0 && from <= l.base {
		return nil, tip, epoch, ErrTrimmed
	}
	if from > tip+1 {
		return nil, tip, epoch, ErrFuture
	}
	if from == tip+1 {
		return nil, tip, epoch, nil
	}
	i := int(from - l.base - 1) // the i-th retained entry has LSN from
	if max <= 0 || max > len(l.ring)-i {
		max = len(l.ring) - i
	}
	entries = make([]Entry, 0, max)
	for k := i; k < i+max; k++ {
		entries = append(entries, l.ring[(l.head+k)%len(l.ring)])
	}
	return entries, tip, epoch, nil
}

// Wait blocks until a record with LSN ≥ from is retained, the wait
// elapses, or ctx is done — the long-poll primitive of the stream
// endpoint.
func (l *Log) Wait(ctx context.Context, from uint64, wait time.Duration) {
	deadline := time.Now().Add(wait)
	wake := time.AfterFunc(wait, l.cond.Broadcast)
	defer wake.Stop()
	stop := context.AfterFunc(ctx, l.cond.Broadcast)
	defer stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.tipLocked() < from && time.Now().Before(deadline) && ctx.Err() == nil {
		l.cond.Wait()
	}
}
