package chaos

import (
	"errors"
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
