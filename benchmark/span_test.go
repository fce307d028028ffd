package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Op: 1, Name: "op.query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "parse.expr", Start: 5, End: 15},
		{ID: 3, Parent: 1, Op: 1, Name: "algebra.eval", Start: 20, End: 90},
		{ID: 4, Parent: 3, Op: 1, Name: "index.build", Start: 30, End: 50},
		// Overlapping siblings are counted once, and a child running past
		// its parent is clipped to it.
		{ID: 5, Parent: 3, Op: 1, Name: "scan", Start: 40, End: 60},
		{ID: 6, Parent: 3, Op: 1, Name: "late", Start: 85, End: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 10 - 70, // root: what no layer span covers
		2: 10,
		3: 70 - (60 - 30) - (90 - 85),
		4: 20,
		5: 20,
		6: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	// Self times of non-overlapping, properly nested spans add up to the
	// root: nothing is counted twice or lost.
	nested := spans[:4]
	var sum int64
	for _, v := range selfTimes(nested) {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times of a properly nested operation sum to %d, want the root's 100", sum)
	}
}
