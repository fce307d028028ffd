package retain

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func fill(l *Log[int], from, to int) {
	for v := from; v <= to; v++ {
		l.Append(v)
	}
}

// TestLogFromWindow: a log capped at 3 after 5 appends holds positions
// 3..5; below that is trimmed, past tip+1 is the future, tip+1 is an
// empty page, and a limit pages.
func TestLogFromWindow(t *testing.T) {
	l := New[int](3)
	if got, tip, err := l.From(1, 0); err != nil || len(got) != 0 || tip != 0 {
		t.Fatalf("empty log: %v tip %d err %v", got, tip, err)
	}
	fill(l, 1, 5)
	if l.Tip() != 5 || l.Len() != 3 {
		t.Fatalf("tip %d len %d, want 5 3", l.Tip(), l.Len())
	}
	for _, from := range []uint64{0, 1, 2} {
		if _, _, err := l.From(from, 0); !errors.Is(err, ErrTrimmed) {
			t.Fatalf("from %d: %v, want ErrTrimmed", from, err)
		}
	}
	got, tip, err := l.From(3, 0)
	if err != nil || tip != 5 || len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("from 3: %v tip %d err %v", got, tip, err)
	}
	if got, _, _ := l.From(4, 1); len(got) != 1 || got[0] != 4 {
		t.Fatalf("paged: %v", got)
	}
	if got, _, err := l.From(6, 0); err != nil || len(got) != 0 {
		t.Fatalf("from tip+1: %v err %v", got, err)
	}
	if _, _, err := l.From(7, 0); !errors.Is(err, ErrFuture) {
		t.Fatalf("from 7: %v, want ErrFuture", err)
	}
}

// TestLogSetCapShrinks: lowering the cap drops the oldest entries at once
// and later appends keep the new cap.
func TestLogSetCapShrinks(t *testing.T) {
	l := New[int](8)
	fill(l, 1, 6)
	l.SetCap(2)
	if got, _, err := l.From(5, 0); err != nil || len(got) != 2 || got[0] != 5 {
		t.Fatalf("after shrink: %v err %v", got, err)
	}
	fill(l, 7, 9)
	if got, _, err := l.From(8, 0); err != nil || len(got) != 2 || got[1] != 9 || l.Len() != 2 {
		t.Fatalf("after more appends: %v err %v len %d", got, err, l.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetCap(0) did not panic")
		}
	}()
	l.SetCap(0)
}

// TestLogResetPlacesTip: Reset empties the log at a base; the next append
// takes base+1 and anything at or below base is trimmed.
func TestLogResetPlacesTip(t *testing.T) {
	l := New[int](4)
	fill(l, 1, 3)
	l.Reset(10)
	if pos := l.Append(11); pos != 11 {
		t.Fatalf("append after reset at 10 took position %d", pos)
	}
	if _, _, err := l.From(10, 0); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("from base: %v, want ErrTrimmed", err)
	}
}

// TestLogWait: a waiter wakes on the append that reaches its position, and
// on its context; a caught-up position waits out the wait.
func TestLogWait(t *testing.T) {
	l := New[int](4)
	done := make(chan struct{})
	go func() {
		l.Wait(context.Background(), 1, 5*time.Second)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	l.Append(1)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on append")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan struct{})
	go func() {
		l.Wait(ctx, 2, time.Minute)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on context cancel")
	}

	start := time.Now()
	l.Wait(context.Background(), 2, 20*time.Millisecond)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("Wait returned after %v with nothing to read", d)
	}
}

// TestLogConcurrentReaders: long-polling readers follow one appender
// and each sees every position, in order, holding its own value.
func TestLogConcurrentReaders(t *testing.T) {
	const n = 500
	l := New[uint64](n)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := uint64(1)
			for next <= n {
				l.Wait(context.Background(), next, time.Second)
				got, _, err := l.From(next, 7)
				if err != nil {
					t.Errorf("from %d: %v", next, err)
					return
				}
				for _, v := range got {
					if v != next {
						t.Errorf("position %d holds %d", next, v)
						return
					}
					next++
				}
			}
		}()
	}
	for v := uint64(1); v <= n; v++ {
		l.Append(v)
	}
	wg.Wait()
}
