// Package retain is the server side of a pull link: a numbered log whose
// oldest entries fall off past a cap, paged by position and long-polled
// for the next one. A source's change reports (positions = its sequence
// numbers) and a leader's replication records (positions = LSNs) are
// both kept in one, so a client that falls behind either sees the same
// two verdicts: its position was trimmed, or lies past the tip.
package retain

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrTrimmed reports a position at or below the log's base: the entry
// was dropped to keep the log within its cap.
var ErrTrimmed = errors.New("retain: position precedes the retained log")

// ErrFuture reports a position past tip+1: no entry was ever appended
// there.
var ErrFuture = errors.New("retain: position is past the log's tip")

// Log is a capped ring of entries at positions (base, tip]. It has its
// own lock, so a reader long-polling it never waits behind the
// appender's other work. Safe for concurrent use.
type Log[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	base uint64 // position of the last entry dropped (0 = none)
	ring []T    // positions base+1..tip from ring[head] on, wrapping
	head int
	cap  int
}

// New returns an empty log holding at most capacity entries; it panics
// when capacity < 1, since every log has a cap.
func New[T any](capacity int) *Log[T] {
	l := &Log[T]{}
	l.cond = sync.NewCond(&l.mu)
	l.SetCap(capacity)
	return l
}

// SetCap changes the cap, dropping the oldest entries past it.
func (l *Log[T]) SetCap(capacity int) {
	if capacity < 1 {
		panic("retain: a log's cap must be at least 1")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if drop := len(l.ring) - capacity; drop > 0 {
		kept := make([]T, 0, capacity)
		for k := drop; k < len(l.ring); k++ {
			kept = append(kept, l.ring[(l.head+k)%len(l.ring)])
		}
		l.ring, l.head = kept, 0
		l.base += uint64(drop)
	}
	l.cap = capacity
}

// Reset empties the log and places its tip at base: the next Append
// takes position base+1.
func (l *Log[T]) Reset(base uint64) {
	l.mu.Lock()
	l.base, l.ring, l.head = base, nil, 0
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Tip returns the position of the last entry appended (or of base on an
// empty log).
func (l *Log[T]) Tip() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.ring))
}

// Len returns how many entries are retained.
func (l *Log[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Append retains v at position tip+1 and returns that position. Once
// the log is full the oldest entry's slot is reused, so an append costs
// the same at any cap.
func (l *Log[T]) Append(v T) uint64 {
	l.mu.Lock()
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, v)
	} else {
		l.ring[l.head] = v
		l.head = (l.head + 1) % len(l.ring)
		l.base++
	}
	pos := l.base + uint64(len(l.ring))
	l.mu.Unlock()
	l.cond.Broadcast()
	return pos
}

// From returns up to limit retained entries (all when limit ≤ 0) from
// position from on, with the tip. Position 0 reads as 1. from ≤ base
// (with base > 0) is ErrTrimmed, from past tip+1 ErrFuture; from ==
// tip+1 is an empty page.
func (l *Log[T]) From(from uint64, limit int) ([]T, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tip := l.base + uint64(len(l.ring))
	from = max(from, 1)
	switch {
	case l.base > 0 && from <= l.base:
		return nil, tip, ErrTrimmed
	case from > tip+1:
		return nil, tip, ErrFuture
	}
	i := int(from - l.base - 1)
	n := len(l.ring) - i
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]T, n)
	for k := range out {
		out[k] = l.ring[(l.head+i+k)%len(l.ring)]
	}
	return out, tip, nil
}

// Wait blocks until an entry at position ≥ from exists, the wait
// elapses, or ctx is done — the long poll of a caught-up reader.
func (l *Log[T]) Wait(ctx context.Context, from uint64, wait time.Duration) {
	deadline := time.Now().Add(wait)
	wake := time.AfterFunc(wait, l.cond.Broadcast)
	defer wake.Stop()
	stop := context.AfterFunc(ctx, l.cond.Broadcast)
	defer stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.base+uint64(len(l.ring)) < from && time.Now().Before(deadline) && ctx.Err() == nil {
		l.cond.Wait()
	}
}
