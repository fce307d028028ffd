// Command layers is the benchmark's traced run: it replays the seeded
// queries and updates in-process, calling each layer of the repository
// through its public functions, and records a span around every call.
// The spans are recorded here, in the benchmark's own files; nothing in
// the program under test is instrumented. The harness reads the span
// file, computes self times and turns them into the per-layer metrics.
//
// It is a package of its own because it is the only part of the
// benchmark that imports the repository: if a refactor changes these
// functions, the process-level runs (which speak HTTP only) still build.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/replica"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/source"
)

// span is one line of spans.jsonl.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0: a root
	Op     int                `json:"op"`     // id of the root span of the operation
	Name   string             `json:"name"`
	Start  int64              `json:"startNs"` // since the recorder's epoch
	End    int64              `json:"endNs"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. The replay is
// single-threaded, so the open spans form a stack.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // indexes into spans
}

func (r *recorder) begin(name string) {
	s := span{ID: len(r.spans) + 1, Name: name}
	if n := len(r.open); n > 0 {
		p := r.spans[r.open[n-1]]
		s.Parent, s.Op = p.ID, p.Op
	} else {
		s.Op = s.ID
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, s)
	r.spans[len(r.spans)-1].Start = int64(time.Since(r.epoch))
}

// end closes the innermost open span; attrs are name, value pairs.
func (r *recorder) end(attrs ...any) {
	now := int64(time.Since(r.epoch))
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = now
	for k := 0; k+1 < len(attrs); k += 2 {
		if r.spans[i].Attrs == nil {
			r.spans[i].Attrs = map[string]float64{}
		}
		r.spans[i].Attrs[attrs[k].(string)] = toFloat(attrs[k+1])
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case time.Duration:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("layers: attribute of type %T", v))
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fixed replay sizes; the query and update counts are the harness's.
const (
	checkpoints    = 5
	replaySuffix   = 32 // journal records left for recovery to replay
	recoveries     = 3
	deliveries     = 200
	relationProbes = 10
	snapshotShips  = 3
	batchFetches   = 20
)

type env struct {
	rec  *recorder
	dir  string // spec and CSVs
	work string // journal and snapshot written by the replay
	ctx  context.Context
}

func main() {
	dir := flag.String("dir", "", "directory holding warehouse.dw and its CSV files")
	work := flag.String("work", "", "scratch directory for the journal and snapshot")
	queries := flag.String("queries", "", "file of queries, one per line")
	updates := flag.String("updates", "", "file of update bodies, one per line")
	leader := flag.String("leader", "", "URL of a live dwserve leader for the replica fetches (optional)")
	spansOut := flag.String("spans", "spans.jsonl", "where to write the spans")
	flag.Parse()
	qs, err := readLines(*queries)
	if err != nil {
		die(err)
	}
	us, err := readLines(*updates)
	if err != nil {
		die(err)
	}
	e := &env{rec: &recorder{epoch: time.Now()}, dir: *dir, work: *work, ctx: context.Background()}
	summary, err := e.replay(qs, us, *leader)
	if err != nil {
		die(err)
	}
	if err := e.rec.write(*spansOut); err != nil {
		die(err)
	}
	out, _ := json.Marshal(summary)
	fmt.Println(string(out))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "layers:", err)
	os.Exit(1)
}

func readLines(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n"), nil
}

// summary carries what spans cannot: allocation counts and wall times
// of the untraced blocks, from which the harness derives per-operation
// allocations and the overhead of tracing itself.
type summary struct {
	QueryTracedNs    float64 `json:"queryTracedNs"` // mean per query
	QueryUntracedNs  float64 `json:"queryUntracedNs"`
	UpdateTracedNs   float64 `json:"updateTracedNs"`
	UpdateUntracedNs float64 `json:"updateUntracedNs"`
	AllocsPerQuery   float64 `json:"allocsPerQuery"`
	AllocsParis      float64 `json:"allocsPerUpdateParis"`
	AllocsTokyo      float64 `json:"allocsPerUpdateTokyo"`
	Duplicates       int     `json:"integratorDuplicates"`
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// boot parses the spec, computes the complement and materialises the
// warehouse, each under its own span.
func (e *env) boot() (*dwc.Spec, *dwc.Complement, *dwc.Warehouse, error) {
	raw, err := os.ReadFile(filepath.Join(e.dir, "warehouse.dw"))
	if err != nil {
		return nil, nil, nil, err
	}
	e.rec.begin("op.boot")
	defer e.rec.end()
	e.rec.begin("parse.spec_load")
	spec, err := dwc.ParseSpecAt(string(raw), e.dir)
	e.rec.end()
	if err != nil {
		return nil, nil, nil, err
	}
	e.rec.begin("core.compute")
	comp, err := dwc.ComputeComplement(spec.DB, spec.Views, dwc.Theorem22())
	e.rec.end()
	if err != nil {
		return nil, nil, nil, err
	}
	// The dwctl-vet fact the workloads rest on: paris traffic bypasses
	// the complement, tokyo traffic goes through the only stored one.
	if stored := comp.StoredEntries(); len(stored) != 1 || stored[0].Name != "C_Order_tokyo" {
		return nil, nil, nil, fmt.Errorf("the generated spec stores %d complements, want exactly C_Order_tokyo", len(stored))
	}
	e.rec.begin("warehouse.materialize")
	w := dwc.NewWarehouse(comp)
	err = w.Initialize(spec.State)
	e.rec.end()
	return spec, comp, w, err
}

func (e *env) replay(queries, updates []string, leader string) (*summary, error) {
	sum := &summary{}
	spec, comp, w, err := e.boot()
	if err != nil {
		return nil, err
	}
	if err := e.queries(w, queries, sum); err != nil {
		return nil, err
	}
	e.relations(w)
	if err := e.updates(spec, comp, w, updates, sum); err != nil {
		return nil, err
	}
	for i := 0; i < recoveries; i++ {
		if err := e.recover(); err != nil {
			return nil, err
		}
	}
	if err := e.deliveries(spec, comp, updates, sum); err != nil {
		return nil, err
	}
	if leader != "" {
		if err := e.replica(spec, leader); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// siteOf tells which order relation a query or update touches first:
// 0 paris, 1 tokyo. Queries reading both count as tokyo, the side that
// pays for the stored complement.
func siteOf(text string) int {
	if strings.Contains(text, "Order_tokyo") {
		return 1
	}
	return 0
}

// queries answers each query the way dwserve's handler does: parse,
// translate through W^-1, evaluate — once with spans recorded and once
// with total time and allocations only.
func (e *env) queries(w *dwc.Warehouse, queries []string, sum *summary) error {
	answer := func(text string, traced bool) error {
		if traced {
			e.rec.begin("op.query")
			defer e.rec.end("site", siteOf(text))
			e.rec.begin("parse.expr")
		}
		q, err := dwc.ParseExpr(text)
		if traced {
			e.rec.end()
		}
		if err != nil {
			return err
		}
		if traced {
			e.rec.begin("warehouse.translate")
		}
		qHat, err := w.TranslateQuery(q)
		if traced {
			e.rec.end("site", siteOf(text))
		}
		if err != nil {
			return err
		}
		if traced {
			e.rec.begin("algebra.eval")
		}
		rows, err := dwc.EvalExpr(e.ctx, qHat, w)
		if err != nil {
			if traced {
				e.rec.end()
			}
			return err
		}
		if traced {
			st := rows.Stats()
			e.rec.end("scanned", st.Scanned, "emitted", st.Emitted, "indexBuilds", st.IndexBuilds)
		}
		return nil
	}
	// Warm the index and column caches the way the process-level
	// warm-up does, so the first timed evaluation is not the cold one.
	for _, q := range queries[:min(len(queries), 100)] {
		if err := answer(q, false); err != nil {
			return err
		}
	}
	// Every query is answered twice, once traced and once not, in
	// alternating order, so both sides do exactly the same work.
	var tracedNs, untracedNs time.Duration
	var allocs uint64
	timed := func(q string, traced bool) error {
		before := mallocs()
		start := time.Now()
		err := answer(q, traced)
		took := time.Since(start)
		if traced {
			tracedNs += took
		} else {
			untracedNs += took
			allocs += mallocs() - before
		}
		return err
	}
	for i, q := range queries {
		first := i%2 == 0
		if err := timed(q, first); err != nil {
			return err
		}
		if err := timed(q, !first); err != nil {
			return err
		}
	}
	n := float64(len(queries))
	sum.QueryTracedNs = float64(tracedNs) / n
	sum.QueryUntracedNs = float64(untracedNs) / n
	sum.AllocsPerQuery = float64(allocs) / n
	return nil
}

// relations times the two relation-level costs every write imposes on
// the next read: cloning a fact view (copy-on-write refresh) and
// rebuilding its columnar image after a mutation dropped it.
func (e *env) relations(w *dwc.Warehouse) {
	fact, ok := w.Relation("FactParis")
	if !ok {
		return
	}
	for i := 0; i < relationProbes; i++ {
		e.rec.begin("op.relation")
		e.rec.begin("relation.clone")
		c := fact.Clone()
		e.rec.end("rows", c.Len())
		// Any mutation invalidates the image; the next Batches rebuilds it.
		var first dwc.Tuple
		for t := range c.All() {
			first = t
			break
		}
		c.Delete(first)
		e.rec.begin("relation.image_build")
		for range c.Batches() {
			break
		}
		e.rec.end("rows", c.Len())
		e.rec.end()
	}
}

// updates applies each update the way dwserve's /update handler does:
// parse, refresh, journal append with fsync; every len/checkpoints
// updates it checkpoints like checkpointLocked. It leaves a snapshot
// plus a journal suffix behind for recover.
func (e *env) updates(spec *dwc.Spec, comp *dwc.Complement, w *dwc.Warehouse, updates []string, sum *summary) error {
	m := dwc.NewMaintainer(comp)
	jw, err := journal.Open(filepath.Join(e.work, "wal.dwj"))
	if err != nil {
		return err
	}
	defer jw.Close()
	var seq uint64
	apply := func(text string, traced bool) error {
		site := siteOf(text)
		if traced {
			e.rec.begin("op.update")
			defer e.rec.end("site", site)
			e.rec.begin("parse.update")
		}
		u, err := dwc.ParseUpdateOps(spec.DB, text)
		if traced {
			e.rec.end()
		}
		if err != nil {
			return err
		}
		if traced {
			e.rec.begin("maintain.refresh")
		}
		st, err := m.RefreshContext(e.ctx, w, u)
		if err != nil {
			if traced {
				e.rec.end()
			}
			return err
		}
		if traced {
			var propagate time.Duration
			for _, s := range st.Spans {
				propagate += s.Wall
			}
			e.rec.end("site", site, "propagateNs", propagate,
				"restricted", st.RestrictedLookups, "full", st.FullReconstructions,
				"changed", st.Total(), "sourceChanges", st.UpdateSize)
		}
		seq++
		rec := journal.Record{Source: "http", Seq: seq, Update: u, LSN: seq}
		var before int64
		if traced {
			before = fileSize(jw.Path())
			e.rec.begin("journal.append")
		}
		err = jw.Append(rec)
		if traced {
			e.rec.end("bytes", fileSize(jw.Path())-before)
		}
		return err
	}
	checkpoint := func() error {
		e.rec.begin("op.checkpoint")
		defer e.rec.end()
		path := filepath.Join(e.work, "state.snap")
		e.rec.begin("snapshot.save")
		err := snapshot.SaveFileMarks(path, w.State(), map[string]uint64{"http": seq})
		e.rec.end("bytes", fileSize(path), "rows", w.Size())
		if err != nil {
			return err
		}
		e.rec.begin("journal.reset")
		err = jw.Reset()
		e.rec.end()
		return err
	}
	// Updates cannot be applied twice, but they are all alike: pairs of
	// updates (one per site) alternate between traced and untraced.
	body := updates[:len(updates)-replaySuffix]
	every := len(body) / checkpoints
	var tracedNs, untracedNs time.Duration
	var tracedN, untracedN int
	var siteAllocs, siteN [2]uint64
	for i, text := range body {
		traced := (i/2)%2 == 0
		before := mallocs()
		start := time.Now()
		if err := apply(text, traced); err != nil {
			return err
		}
		took := time.Since(start)
		if traced {
			tracedNs, tracedN = tracedNs+took, tracedN+1
		} else {
			untracedNs, untracedN = untracedNs+took, untracedN+1
			s := siteOf(text)
			siteAllocs[s] += mallocs() - before
			siteN[s]++
		}
		if (i+1)%every == 0 {
			if err := checkpoint(); err != nil {
				return err
			}
		}
	}
	for _, text := range updates[len(updates)-replaySuffix:] {
		if err := apply(text, false); err != nil {
			return err
		}
	}
	sum.UpdateTracedNs = float64(tracedNs) / float64(tracedN)
	sum.UpdateUntracedNs = float64(untracedNs) / float64(untracedN)
	sum.AllocsParis = float64(siteAllocs[0]) / float64(max(siteN[0], 1))
	sum.AllocsTokyo = float64(siteAllocs[1]) / float64(max(siteN[1], 1))
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// recover rebuilds a warehouse from the snapshot and journal suffix the
// update replay left, following dwserve's newServer step by step.
func (e *env) recover() error {
	raw, err := os.ReadFile(filepath.Join(e.dir, "warehouse.dw"))
	if err != nil {
		return err
	}
	e.rec.begin("op.recover")
	defer e.rec.end()
	e.rec.begin("parse.spec_load")
	spec, err := dwc.ParseSpecAt(string(raw), e.dir)
	e.rec.end()
	if err != nil {
		return err
	}
	e.rec.begin("core.compute")
	comp, err := dwc.ComputeComplement(spec.DB, spec.Views, dwc.Theorem22())
	e.rec.end()
	if err != nil {
		return err
	}
	e.rec.begin("snapshot.load")
	ms, marks, err := snapshot.LoadFileMarks(filepath.Join(e.work, "state.snap"))
	if err == nil {
		err = dwc.VerifySnapshot(ms, comp.Resolver())
	}
	w := dwc.NewWarehouse(comp)
	if err == nil {
		w.LoadState(ms)
	}
	e.rec.end("rows", w.Size())
	if err != nil {
		return err
	}
	m := dwc.NewMaintainer(comp)
	applied := marks["http"]
	e.rec.begin("journal.replay")
	n, _, err := journal.Replay(filepath.Join(e.work, "wal.dwj"), spec.DB, func(rec journal.Record) error {
		if rec.Seq <= applied {
			return nil
		}
		e.rec.begin("maintain.refresh")
		_, rerr := m.RefreshContext(e.ctx, w, rec.Update)
		e.rec.end()
		return rerr
	})
	e.rec.end("records", n)
	return err
}

// deliveries pushes updates down the reporting channel of Figure 1
// in-process: a sealed source applies the transaction, a remote client
// fetches the report from the source's HTTP handler over loopback, and
// the integrator's Offer refreshes a warehouse from it.
func (e *env) deliveries(spec *dwc.Spec, comp *dwc.Complement, updates []string, sum *summary) error {
	w := dwc.NewWarehouse(comp)
	if err := w.Initialize(spec.State); err != nil {
		return err
	}
	integ := source.NewIntegrator(w, comp)
	src, err := dwc.NewSource("orders", spec.DB, true, "Order_paris", "Order_tokyo")
	if err != nil {
		return err
	}
	ts := httptest.NewServer(remote.NewSourceServer(src).Handler())
	defer ts.Close()
	client := remote.NewClient("orders", ts.URL, spec.DB, remote.Config{})
	var offerErr error
	client.OnUpdate(func(n source.Notification) {
		e.rec.begin("source.offer")
		if err := integ.Offer(n); err != nil {
			offerErr = err
		}
		e.rec.end()
	})
	for _, text := range updates[:min(deliveries, len(updates))] {
		u, err := dwc.ParseUpdateOps(spec.DB, text)
		if err != nil {
			return err
		}
		e.rec.begin("op.deliver")
		e.rec.begin("source.apply")
		seq, err := src.ApplyContext(e.ctx, u)
		e.rec.end()
		if err != nil {
			e.rec.end()
			return err
		}
		e.rec.begin("remote.fetch")
		err = client.Resend(seq)
		e.rec.end()
		e.rec.end()
		if err != nil {
			return err
		}
		if offerErr != nil {
			return offerErr
		}
	}
	sum.Duplicates, _ = integ.DeliveryStats()
	return nil
}

// replica times the two follower-side fetches against a live leader.
func (e *env) replica(spec *dwc.Spec, leader string) error {
	c := replica.NewClient(leader, spec.DB, remote.Config{})
	from := uint64(1)
	for i := 0; i < snapshotShips; i++ {
		e.rec.begin("op.replica")
		e.rec.begin("replica.fetch_snapshot")
		ship, err := c.FetchSnapshot(e.ctx)
		e.rec.end()
		e.rec.end()
		if err != nil {
			return err
		}
		// Stay inside the leader's retained log: the last checkpoint
		// interval's worth of records, or none on a leader that took no
		// updates.
		from = max(ship.LSN, 63) - 62
	}
	for i := 0; i < batchFetches; i++ {
		e.rec.begin("op.replica")
		e.rec.begin("replica.fetch_batch")
		b, err := c.FetchBatch(e.ctx, from, 0)
		if err != nil {
			e.rec.end()
			e.rec.end()
			return err
		}
		e.rec.end("records", len(b.Records))
		e.rec.end()
	}
	return nil
}
