package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/source"
	"dwcomplement/internal/workload"
)

// e16 — the reporting channel over a real network: the same maintenance
// workload runs once with in-process delivery and once with the sources
// behind loopback HTTP servers and the resilient client in between,
// measuring what the wire costs and verifying the warehouse still
// converges to the oracle without a single source query.
func e16() experiment {
	return experiment{
		id:    "E16",
		title: "remote sources over HTTP: wire overhead and convergence",
		paper: "Figure 1 (reporting channel as a network protocol; beyond the paper's formal scope)",
		run: func(c *config) error {
			ops := 400
			if c.quick {
				ops = 80
			}

			inprocNs, err := e16Run(c, ops, false)
			if err != nil {
				return err
			}
			remoteNs, err := e16Run(c, ops, true)
			if err != nil {
				return err
			}

			perOpIn := float64(inprocNs) / float64(ops)
			perOpWire := float64(remoteNs) / float64(ops)
			c.table([]string{"delivery", "ops", "total", "per update"}, [][]string{
				{"in-process", fmt.Sprint(ops), time.Duration(inprocNs).String(), time.Duration(int64(perOpIn)).String()},
				{"loopback HTTP", fmt.Sprint(ops), time.Duration(remoteNs).String(), time.Duration(int64(perOpWire)).String()},
			})
			c.printf("  wire/in-process per-update ratio: %.2fx — the HTTP round trip,\n", perOpWire/perOpIn)
			c.printf("  JSON framing, and Seq dedup, minus what batched long-poll delivery\n")
			c.printf("  amortizes (one report batch can carry many updates)\n")
			c.printf("  both runs converged to the oracle with exactly-once application\n")
			c.printf("  and zero ad-hoc source queries — update independence holds on the wire\n")
			c.metric("inprocNsPerUpdate", perOpIn)
			c.metric("remoteNsPerUpdate", perOpWire)
			c.metric("wireOverheadX", perOpWire/perOpIn)
			return nil
		},
	}
}

// e16Run drives ops random source transactions through the Figure 1
// pipeline — in-process when wire is false, through httptest servers
// and remote clients when true — waits for convergence, checks the
// warehouse against an oracle recomputation, and returns the wall time
// of the traffic phase.
func e16Run(c *config, ops int, wire bool) (int64, error) {
	sc := workload.Figure1(false)
	comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
	env, err := source.NewEnvironment(comp, map[string][]string{
		"sales":   {"Sale"},
		"company": {"Emp"},
	})
	if err != nil {
		return 0, err
	}
	integ := env.Integrator

	var clients map[string]*remote.Client
	if wire {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		clients = map[string]*remote.Client{}
		for _, s := range env.Sources {
			ts := httptest.NewServer(remote.NewSourceServer(s).Handler())
			defer ts.Close()
			cl := remote.NewClient(s.Name(), ts.URL, sc.DB, remote.Config{
				AttemptTimeout: time.Second,
				MaxRetries:     -1,
				PollWait:       250 * time.Millisecond,
				PollInterval:   50 * time.Microsecond,
			})
			cl.OnUpdate(integ.Receive)
			clients[s.Name()] = cl
			cl.Start(ctx)
			defer cl.Close()
		}
	}

	sales, _ := env.Source("sales")
	company, _ := env.Source("company")
	start := time.Now()
	for i := 0; i < ops; i++ {
		var err error
		if i%5 == 4 {
			u := catalog.NewUpdate().MustInsert("Emp", sc.DB,
				relation.String_(fmt.Sprintf("clerk-%d", i)), relation.Int(int64(20+i%40)))
			_, err = company.Apply(u)
		} else {
			u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
				relation.String_(fmt.Sprintf("item-%d", i)),
				relation.String_(e16Clerk(company, i)))
			_, err = sales.Apply(u)
		}
		if err != nil {
			return 0, err
		}
	}
	// Wall time includes the drain: with the wire in between delivery
	// is asynchronous, so wait until every report is applied.
	deadline := time.Now().Add(30 * time.Second)
	for {
		marks := integ.Marks()
		done := true
		for _, s := range env.Sources {
			if marks[s.Name()] < s.Seq() {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("pipeline did not drain: marks=%v", marks)
		}
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(start).Nanoseconds()

	// Convergence: the maintained warehouse equals an oracle
	// recomputation from the sources' true combined state.
	combined, err := env.CombinedState()
	if err != nil {
		return 0, err
	}
	oracle, err := comp.MaterializeWarehouseCtx(nil, combined)
	if err != nil {
		return 0, err
	}
	for name, want := range oracle {
		got, ok := integ.Warehouse().Relation(name)
		if !ok {
			return 0, fmt.Errorf("warehouse lost relation %s", name)
		}
		if !got.Equal(want) {
			return 0, fmt.Errorf("relation %s diverged from oracle", name)
		}
	}
	for _, s := range env.Sources {
		if marks := integ.Marks(); marks[s.Name()] != s.Seq() {
			return 0, fmt.Errorf("source %s applied %d of %d updates", s.Name(), marks[s.Name()], s.Seq())
		}
	}
	if n := env.TotalQueryAttempts(); n != 0 {
		return 0, fmt.Errorf("pipeline issued %d ad-hoc source queries", n)
	}
	return elapsed, nil
}

// e16Clerk picks a clerk that exists in the company source so inserted
// sales join with Emp rows and every update touches the view.
func e16Clerk(company *source.Source, i int) string {
	emp, _ := company.Snapshot().Relation("Emp")
	pos, _ := emp.Pos("clerk")
	rows := emp.SortedTuples()
	if len(rows) == 0 {
		return "Mary"
	}
	return rows[i%len(rows)][pos].AsString()
}
