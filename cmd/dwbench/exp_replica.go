package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/replica"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

// e20 — replication: follower catch-up lag and failover to first
// answer. A miniature leader (the same replica.Log + snapshot shipping
// + journal streaming dwserve mounts; dwbench cannot import
// cmd/dwserve, both are package main) commits a maintenance workload
// while a follower bootstraps from the snapshot and streams the journal
// suffix, applying every record through warehouse-only maintenance. Two
// operator-facing gates: the p95 commit-to-apply lag must stay at or
// below 2 seconds on a loopback wire, and after the leader is killed
// mid-stream the follower must be promoted and answer its first query
// within 2 seconds. The promoted state is checked bitwise against a
// MaterializeWarehouseCtx oracle of exactly the applied prefix — failover
// may lose acknowledged-but-unstreamed updates (the paper's complement
// only reconstructs what reached the warehouse), it must never corrupt
// or double-apply one.
func e20() experiment {
	return experiment{
		id:    "E20",
		title: "replication: catch-up lag p95 and failover to first answer",
		paper: "w' = W(u(W⁻¹(w))) as a replication protocol (operational; beyond the paper's formal scope)",
		run: func(c *config) error {
			ops := 300
			if c.quick {
				ops = 60
			}

			sc := workload.Figure1(false)
			comp := core.MustCompute(sc.DB, sc.Views, core.Proposition22())
			st := workload.Figure1State(sc.DB)

			ld, err := newE20Leader(comp, st)
			if err != nil {
				return err
			}
			ts := httptest.NewServer(ld)
			defer ts.Close()

			// The follower: bootstrap from the snapshot, then stream.
			fw := warehouse.New(comp)
			fm := maintain.NewMaintainer(comp)
			cl := replica.NewClient(ts.URL, sc.DB, remote.Config{
				AttemptTimeout: time.Second,
				MaxRetries:     2,
				BackoffBase:    time.Millisecond,
				PollWait:       500 * time.Millisecond,
				Seed:           c.seed,
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ship, err := cl.FetchSnapshot(ctx)
			if err != nil {
				return err
			}
			fw.LoadState(ship.State)
			// applied is the follower's visible progress: written by the
			// stream goroutine, polled by the driver below.
			var applied atomic.Uint64
			applied.Store(ship.LSN)

			// Stream concurrently with the commit loop; every applied record
			// yields one commit-to-apply lag sample.
			var lagMu sync.Mutex
			var lags []time.Duration
			var applyErr error
			streamDone := make(chan struct{})
			go func() {
				defer close(streamDone)
				cursor := ship.LSN
				for {
					b, err := cl.FetchBatch(ctx, cursor+1, 500*time.Millisecond)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						// The leader's death lands here; promotion takes over.
						applyErr = err
						return
					}
					for _, rec := range b.Records {
						if rec.LSN != cursor+1 {
							continue
						}
						if _, err := fm.RefreshContext(ctx, fw, rec.Update); err != nil {
							applyErr = err
							return
						}
						cursor = rec.LSN
						applied.Store(cursor)
						if at, ok := ld.commitTime(rec.LSN); ok {
							lagMu.Lock()
							lags = append(lags, time.Since(at))
							lagMu.Unlock()
						}
					}
				}
			}()

			// Phase 1: the catch-up workload.
			clerks := 8
			for i := 0; i < clerks; i++ {
				u := catalog.NewUpdate().MustInsert("Emp", sc.DB,
					relation.String_(fmt.Sprintf("clerk-%d", i)), relation.Int(int64(20+i)))
				if err := ld.commit(u); err != nil {
					return err
				}
			}
			for i := 0; i < ops; i++ {
				u := catalog.NewUpdate().MustInsert("Sale", sc.DB,
					relation.String_(fmt.Sprintf("item-%d", i)),
					relation.String_(fmt.Sprintf("clerk-%d", i%clerks)))
				if err := ld.commit(u); err != nil {
					return err
				}
			}
			total := uint64(clerks + ops)
			deadline := time.Now().Add(30 * time.Second)
			for applied.Load() < total {
				if time.Now().After(deadline) {
					return fmt.Errorf("follower stuck at LSN %d of %d", applied.Load(), total)
				}
				time.Sleep(time.Millisecond)
			}

			// Phase 2: kill the leader mid-stream and fail over. First-200
			// time covers detection (the in-flight fetch failing), promotion
			// (here: adopting the leader role) and the first answered read.
			killed := time.Now()
			ts.CloseClientConnections()
			ts.Close()
			select {
			case <-streamDone:
			case <-time.After(10 * time.Second):
				return errors.New("follower never noticed the dead leader")
			}
			if applyErr == nil {
				return errors.New("stream ended without a leader-death error")
			}
			sold, ok := fw.Relation("Sold")
			if !ok {
				return errors.New("promoted follower is missing Sold")
			}
			first200 := time.Since(killed)

			// Correctness: the promoted state is bitwise-equal to the oracle
			// of exactly the applied prefix (here the full workload).
			oracleState := ld.stateAt()
			want, err := comp.MaterializeWarehouseCtx(nil, oracleState)
			if err != nil {
				return err
			}
			for name, wr := range want {
				got, ok := fw.Relation(name)
				if !ok || !got.Equal(wr) {
					return fmt.Errorf("promoted follower diverged from the oracle on %s", name)
				}
			}

			lagMu.Lock()
			p50 := quantileDur(lags, 0.50)
			p95 := quantileDur(lags, 0.95)
			samples := len(lags)
			lagMu.Unlock()
			c.table([]string{"metric", "value"}, [][]string{
				{"records streamed", fmt.Sprint(total)},
				{"lag samples", fmt.Sprint(samples)},
				{"catch-up lag p50", p50.String()},
				{"catch-up lag p95", p95.String()},
				{"failover to first answer", first200.String()},
				{"Sold rows after failover", fmt.Sprint(sold.Len())},
			})
			c.printf("  every record applied exactly once (LSN-ordered, watermark-deduped);\n")
			c.printf("  the promoted follower equals the MaterializeWarehouse oracle bitwise\n")
			c.metric("catchupLagSecP50", p50.Seconds())
			c.metric("catchupLagSecP95", p95.Seconds())
			c.metric("failoverFirst200Sec", first200.Seconds())

			// The gates: steady-state replication lag and failover time are
			// the two numbers an operator pages on.
			if p95 > 2*time.Second {
				return fmt.Errorf("catch-up lag p95 %v exceeds the 2s gate", p95)
			}
			if first200 > 2*time.Second {
				return fmt.Errorf("failover to first answer %v exceeds the 2s gate", first200)
			}
			return nil
		},
	}
}

// e20Leader is the miniature replicated leader: a warehouse maintained
// through the Figure 1 path whose every commit also lands in a
// replica.Log, served over the same two endpoints dwserve exposes.
type e20Leader struct {
	mu    sync.Mutex
	w     *warehouse.Warehouse
	m     *maintain.Maintainer
	rlog  *replica.Log
	st    *catalog.State // source-state mirror, the oracle input
	lsn   uint64
	times map[uint64]time.Time
	mux   *http.ServeMux
}

func newE20Leader(comp *core.Complement, st *catalog.State) (*e20Leader, error) {
	w := warehouse.New(comp)
	if err := w.Initialize(st); err != nil {
		return nil, err
	}
	ld := &e20Leader{
		w:     w,
		m:     maintain.NewMaintainer(comp),
		rlog:  replica.NewLog(4096),
		st:    st.Clone(),
		times: map[uint64]time.Time{},
		mux:   http.NewServeMux(),
	}
	ld.rlog.Reset(0, 1)
	ld.mux.HandleFunc("GET /replica/snapshot", ld.handleSnapshot)
	ld.mux.HandleFunc("GET /replica/stream", ld.handleStream)
	return ld, nil
}

func (l *e20Leader) ServeHTTP(w http.ResponseWriter, req *http.Request) { l.mux.ServeHTTP(w, req) }

func (l *e20Leader) commit(u *catalog.Update) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.m.RefreshContext(context.Background(), l.w, u); err != nil {
		return err
	}
	if err := u.Apply(l.st); err != nil {
		return err
	}
	rec := journal.Record{Source: "bench", Seq: l.lsn + 1, Update: u, Epoch: 1, LSN: l.lsn + 1}
	frame, err := journal.Frame(rec)
	if err == nil {
		err = l.rlog.Append(rec, frame)
	}
	if err != nil {
		return err
	}
	l.lsn++
	l.times[l.lsn] = time.Now()
	return nil
}

func (l *e20Leader) commitTime(lsn uint64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at, ok := l.times[lsn]
	return at, ok
}

func (l *e20Leader) stateAt() *catalog.State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Clone()
}

func (l *e20Leader) handleSnapshot(w http.ResponseWriter, req *http.Request) {
	l.mu.Lock()
	ms := l.w.CloneState()
	marks := replica.WithMetaMarks(map[string]uint64{"bench": l.lsn}, 1, l.lsn)
	l.mu.Unlock()
	w.Header().Set(replica.HeaderEpoch, "1")
	w.Header().Set(replica.HeaderLSN, strconv.FormatUint(marks[replica.MarkLSN], 10))
	w.Header().Set(replica.HeaderRole, "leader")
	_ = snapshot.SaveMarks(w, ms, marks)
}

func (l *e20Leader) handleStream(w http.ResponseWriter, req *http.Request) {
	from, wait, err := remote.PollParams(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	l.rlog.Wait(req.Context(), from, wait)
	entries, tip, epoch, err := l.rlog.From(from, 256)
	if err != nil {
		code := http.StatusGone
		if errors.Is(err, replica.ErrFuture) {
			code = http.StatusRequestedRangeNotSatisfiable
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set(replica.HeaderEpoch, strconv.FormatUint(epoch, 10))
	w.Header().Set(replica.HeaderTip, strconv.FormatUint(tip, 10))
	w.Header().Set(replica.HeaderRole, "leader")
	for _, e := range entries {
		if _, err := w.Write(e.Frame); err != nil {
			return
		}
	}
}

// quantileDur returns the q-quantile of ds (nearest-rank).
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
