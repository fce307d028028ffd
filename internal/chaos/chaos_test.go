package chaos

import (
	"errors"
	"reflect"
	"testing"

	"dwcomplement/internal/testmain"
)

func TestMain(m *testing.M) { testmain.Run(m) }

func TestPointDisarmedIsNil(t *testing.T) {
	Reset()
	for i := 0; i < 3; i++ {
		if err := Point("journal.append"); err != nil {
			t.Fatalf("disarmed point returned %v", err)
		}
	}
}

func TestArmFiresExactlyOnce(t *testing.T) {
	Reset()
	boom := errors.New("boom")
	disarm := Arm("refresh.apply", 3, boom)
	defer disarm()
	for i, want := range []error{nil, nil, boom, nil, nil} {
		if got := Point("refresh.apply"); got != want {
			t.Fatalf("hit %d: got %v, want %v", i+1, got, want)
		}
	}
	if !Fired("refresh.apply") {
		t.Error("Fired not recorded")
	}
	if Hits("refresh.apply") != 5 {
		t.Errorf("hits = %d, want 5", Hits("refresh.apply"))
	}
}

func TestArmCountOnly(t *testing.T) {
	Reset()
	defer Reset()
	Arm("snapshot.write", 0, nil) // failAt 0: count traversals, never fire
	for i := 0; i < 4; i++ {
		if err := Point("snapshot.write"); err != nil {
			t.Fatalf("count-only point fired: %v", err)
		}
	}
	if Hits("snapshot.write") != 4 {
		t.Errorf("hits = %d, want 4", Hits("snapshot.write"))
	}
}

func TestDisarmStopsInjection(t *testing.T) {
	Reset()
	disarm := Arm("p", 1, nil)
	disarm()
	if err := Point("p"); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
}

// TestFaultyChannelDeterminism: same seed + same sends → identical
// delivery sequence and identical stats; a different seed diverges.
func TestFaultyChannelDeterminism(t *testing.T) {
	cfg := FaultConfig{Drop: 0.2, Duplicate: 0.2, Delay: 0.3}
	run := func(seed int64) ([]int, FaultStats) {
		var got []int
		ch := NewFaultyChannel(seed, cfg, func(v int) { got = append(got, v) })
		for i := 0; i < 200; i++ {
			ch.Send(i)
		}
		ch.Flush()
		return got, ch.Stats()
	}
	a1, s1 := run(42)
	a2, s2 := run(42)
	if !reflect.DeepEqual(a1, a2) || s1 != s2 {
		t.Fatal("same seed produced different schedules")
	}
	b, _ := run(7)
	if reflect.DeepEqual(a1, b) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Delayed == 0 {
		t.Errorf("schedule exercised no faults: %+v", s1)
	}
	// Conservation: everything sent is delivered, dropped, or held —
	// after Flush nothing is held.
	if s1.Delivered != s1.Sent-s1.Dropped+s1.Duplicated {
		t.Errorf("conservation violated: %+v", s1)
	}
}

func TestFaultyChannelFlushReleasesAll(t *testing.T) {
	n := 0
	ch := NewFaultyChannel(1, FaultConfig{Delay: 1.0, MaxHeld: 8}, func(int) { n++ })
	for i := 0; i < 50; i++ {
		ch.Send(i)
	}
	ch.Flush()
	if ch.Held() != 0 {
		t.Errorf("%d messages still held after Flush", ch.Held())
	}
	if n != 50 {
		t.Errorf("delivered %d of 50 (delay must never lose messages)", n)
	}
}

func TestFaultyChannelRetarget(t *testing.T) {
	var a, b int
	ch := NewFaultyChannel(1, FaultConfig{}, func(int) { a++ })
	ch.Send(1)
	ch.SetDeliver(func(int) { b++ })
	ch.Send(2)
	if a != 1 || b != 1 {
		t.Errorf("retarget failed: a=%d b=%d", a, b)
	}
}

// TestHold: a held point parks its traversal until released, reports
// that it arrived, and still returns a failure armed before the hold.
func TestHold(t *testing.T) {
	Reset()
	defer Reset()
	boom := errors.New("boom")
	Arm("held", 1, boom)
	reached, release := Hold("held")
	got := make(chan error, 1)
	go func() { got <- Point("held") }()
	<-reached
	select {
	case err := <-got:
		t.Fatalf("held point returned %v before release", err)
	default:
	}
	release()
	release() // idempotent
	if err := <-got; !errors.Is(err, boom) {
		t.Fatalf("released point returned %v, want the armed error", err)
	}
	if err := Point("held"); err != nil {
		t.Fatalf("point still held or armed after release: %v", err)
	}
}
