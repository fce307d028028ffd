// Package par runs the independent steps of start-up — loads of different
// relations, constraint checks, view materializations — on the processors
// the process has.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls f(0) … f(n-1) on at most GOMAXPROCS goroutines and returns the
// error of the lowest index that failed, which is the error a sequential
// loop stopping at its first failure would have returned. With one
// processor (or one step) it is that loop.
func Do(n int, f func(i int) error) error {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
