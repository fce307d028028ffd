package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	dwc "dwcomplement"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// starChurn commits the churn updates of a Section-5 star loaded with
// workload.FillSection5(rows): the n-th inserts order rows+n on alternating
// sites, with the last customer and part and a quantity of 1, and deletes
// the order its site inserted two commits before. No query of the process
// benchmark's pool selects one, nor does any shape of BenchmarkAnswerPath.
type starChurn struct {
	h    http.Handler
	rows int
	n    int // commits so far
}

// commit posts the next churn update and returns the tuples it changed.
func (c *starChurn) commit(tb testing.TB) int {
	tb.Helper()
	site, dim := [2]string{"paris", "tokyo"}[c.n%2], c.rows/20
	row := func(n int) string {
		return fmt.Sprintf("Order_%s(%d, %d, %d, '%s', 1)", site, c.rows+n, dim, dim, site)
	}
	ops, tuples := "insert "+row(c.n), 1
	if c.n >= 2 {
		ops, tuples = ops+"\ndelete "+row(c.n-2), 2
	}
	c.n++
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest("POST", "/update", strings.NewReader(ops)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("churn update: status %d: %s", rec.Code, rec.Body)
	}
	return tuples
}

// TestCarryCounts holds the carry check to its counts, which no machine
// changes. Across 40 churn commits, the point, join and scan shapes test
// every tuple of their bases, compose none and carry, and walking their
// commits allocates nothing. The union's orders are bare occurrences, so
// each of their tuples is relevant: it composes exactly those, and carries.
func TestCarryCounts(t *testing.T) {
	spec := mustSpec(t, workload.Section5Spec)
	spec.State = spec.DB.NewState()
	workload.FillSection5(spec.State, 4000)
	srv, err := newServer(spec, dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.handler()
	churn := starChurn{h: h, rows: 4000}
	shapes := []struct {
		q     string
		sites int // order relations read
	}{
		{"sigma{okey = 47}(Order_paris)", 1},
		{"sigma{ckey = 17}(Order_paris join Customer)", 1},
		{"sigma{qty > 49}(Order_paris)", 1},
		{"sigma{brand = 'brand-007'}((Order_paris union Order_tokyo) join Part)", 2},
	}
	for _, c := range shapes {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/query?q="+url.QueryEscape(c.q), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.q, rec.Code, rec.Body)
		}
	}
	var paris, both int // tuples the commits changed in Order_paris, in both sites
	for range 40 {
		n := churn.commit(t)
		if churn.n%2 == 1 {
			paris += n
		}
		both += n
	}
	v, ctx := srv.cur.Load(), context.Background()
	for _, c := range shapes {
		e, _ := srv.qcache.get(c.q)
		e.cost = math.MaxInt64 // the counts, not the pricing
		check := srv.carries(ctx, e, v)
		relevant := int64(0)
		tested := int64(paris)
		if c.sites == 2 {
			relevant, tested = int64(both), int64(both)
		}
		if check.why != carried || check.tested != tested || check.composed != relevant {
			t.Errorf("%s across 40 commits: %+v, want carried, %d tested, %d composed", c.q, check, tested, relevant)
		}
		if c.sites == 2 {
			continue
		}
		p := e.carryPlan(srv.comp.Database())
		w := p.walks.Get().(*carryWalk)
		walk := func() {
			for g := e.gen + 1; g <= v.gen; g++ {
				w.commit(p, srv.changes.at(g))
			}
		}
		if a := testing.AllocsPerRun(20, walk); a != 0 {
			t.Errorf("%s: %.1f allocations walking 40 commits", c.q, a)
		}
	}
}

// TestCarryNetComposes folds random exact update streams into a carry
// walk's net with every tuple relevant: its reverse takes the last state
// back to the first, so an insert later deleted and a delete later
// re-inserted cancel, and nothing else does.
func TestCarryNetComposes(t *testing.T) {
	spec := mustSpec(t, testSpec)
	db := spec.DB
	p := newCarryPlan(dwc.MustParseExpr("pi{clerk}(Sale) union pi{clerk}(Emp)"), db)
	rng := rand.New(rand.NewSource(7))
	tuple := func() (string, relation.Tuple) {
		if rng.Intn(2) == 0 {
			return "Sale", relation.Tuple{relation.String_(fmt.Sprint("item-", rng.Intn(4))), relation.String_(fmt.Sprint("c-", rng.Intn(3)))}
		}
		c := rng.Intn(3) // one age per clerk: the key holds
		return "Emp", relation.Tuple{relation.String_(fmt.Sprint("c-", c)), relation.Int(int64(20 + c))}
	}
	for round := 0; round < 200; round++ {
		first := spec.State.Clone()
		cur := first.Clone()
		w := p.walks.New().(*carryWalk)
		for step := rng.Intn(6); step >= 0; step-- {
			u := dwc.NewUpdate()
			for k := rng.Intn(4); k >= 0; k-- {
				name, tp := tuple()
				if cur.MustRelation(name).Contains(tp) {
					u.MustDelete(name, db, tp...)
				} else {
					u.MustInsert(name, db, tp...)
				}
			}
			u = u.Normalize(cur)
			if err := u.Apply(cur); err != nil {
				t.Fatal(err)
			}
			for i, b := range p.bases {
				w.fold(i, u.Inserts(b.name), +1)
				w.fold(i, u.Deletes(b.name), -1)
			}
		}
		rev, err := w.reverse(p, db)
		if err != nil {
			t.Fatal(err)
		}
		if n := rev.Normalize(cur); n.Size() != rev.Size() {
			t.Fatalf("round %d: reversed net not exact against the last state:\n%s", round, rev)
		}
		back := cur.Clone()
		if err := rev.Apply(back); err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != first.Fingerprint() {
			t.Fatalf("round %d: last state + reversed net ≠ first state\nnet\n%s", round, rev)
		}
	}
}
