package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestDo: every index runs exactly once, the error is the lowest failing
// index's whatever finished first, and with several processors the steps
// do overlap.
func TestDo(t *testing.T) {
	for _, procs := range []int{1, 4} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var ran [64]atomic.Int32
		if err := Do(len(ran), func(i int) error { ran[i].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("GOMAXPROCS=%d: step %d ran %d times", procs, i, ran[i].Load())
			}
		}
		for try := 0; try < 50; try++ {
			err := Do(16, func(i int) error {
				if i == 3 || i == 11 || i == 15 {
					return fmt.Errorf("step %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "step 3" {
				t.Fatalf("GOMAXPROCS=%d: error %v, want step 3's", procs, err)
			}
		}
		if err := Do(0, func(int) error { return errors.New("ran") }); err != nil {
			t.Fatal(err)
		}
	}
	// Two steps that each wait for the other finish only if they run side
	// by side.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var arrived atomic.Int32
	_ = Do(2, func(int) error {
		arrived.Add(1)
		for arrived.Load() < 2 {
			runtime.Gosched()
		}
		return nil
	})
}
