package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dwcomplement/internal/testmain"
)

func TestMain(m *testing.M) { testmain.Run(m) }

func TestTraceparentRoundtrip(t *testing.T) {
	tr := New(Config{Rate: 1, Seed: 7})
	_, sp := tr.Start(context.Background(), "root")
	if !sp.Recording() {
		t.Fatal("rate-1 tracer did not sample")
	}
	tp := sp.Context().Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("bad traceparent %q", tp)
	}
	sc, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent rejected own output %q", tp)
	}
	if sc.TraceID != sp.Context().TraceID || sc.SpanID != sp.Context().SpanID || !sc.Sampled {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", sc, sp.Context())
	}
	sp.End()

	for _, bad := range []string{
		"", "00", "01-" + tp[3:], // wrong version
		"00-00000000000000000000000000000000-0000000000000001-01", // zero trace id
		"00-0102030405060708090a0b0c0d0e0f10-0000000000000000-01", // zero span id
		"00-zz02030405060708090a0b0c0d0e0f10-0102030405060708-01", // bad hex
		tp + "x", tp[:54],
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent accepted %q", bad)
		}
	}
	// Unsampled flag parses with Sampled=false.
	sc2, ok := ParseTraceparent(tp[:53] + "00")
	if !ok || sc2.Sampled {
		t.Fatalf("flags 00 parse: ok=%v sampled=%v", ok, sc2.Sampled)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	if sp.Recording() {
		t.Fatal("nil tracer produced a recording span")
	}
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 42)
	sp.End()
	sp.End()
	if got := sp.Context().Traceparent(); got != "" {
		t.Fatalf("nil span traceparent = %q", got)
	}
	if _, child := StartSpan(ctx, "child"); child.Recording() {
		t.Fatal("StartSpan under nil parent recorded")
	}
	if tr.Store().Len() != 0 {
		t.Fatal("nil store has spans")
	}
	var ms *MaintStats
	ms.ObserveTarget("v", 1, 1, 1, 0, 0, time.Millisecond)
	ms.ObserveRefresh(0, 0, time.Millisecond, time.Millisecond)
	if snap := ms.Snapshot(); len(snap.Targets) != 0 {
		t.Fatal("nil stats snapshot not empty")
	}
}

// TestOpenSpans: a tracer counts the spans it owns until their first
// End, children started through another tracer included; unsampled and
// nil spans are never counted.
func TestOpenSpans(t *testing.T) {
	tr, other := New(Config{Rate: 1, Seed: 3}), New(Config{Rate: 0, Seed: 3})
	ctx, root := tr.Start(context.Background(), "root")
	_, child := StartSpan(ctx, "child")
	_, viaOther := other.Start(ctx, "via-other")
	if got := tr.Open(); got != 3 {
		t.Fatalf("Open = %d after three starts, want 3", got)
	}
	child.End()
	child.End()
	viaOther.End()
	if got := tr.Open(); got != 1 {
		t.Fatalf("Open = %d after ending two spans (one twice), want 1", got)
	}
	root.End()
	if _, sp := other.Start(context.Background(), "unsampled"); sp != nil {
		t.Fatal("rate-0 tracer sampled a root")
	}
	var none *Tracer
	if tr.Open() != 0 || other.Open() != 0 || none.Open() != 0 {
		t.Fatalf("Open = %d/%d/%d at rest, want 0", tr.Open(), other.Open(), none.Open())
	}
}

func TestSamplingDeterminism(t *testing.T) {
	const n = 1000
	run := func(seed int64) []bool {
		tr := New(Config{Rate: 0.1, Seed: seed, Capacity: 8})
		out := make([]bool, n)
		for i := range out {
			_, sp := tr.Start(context.Background(), "op")
			out[i] = sp.Recording()
			sp.End()
		}
		return out
	}
	a, b := run(42), run(42)
	sampled := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded tracers", i)
		}
		if a[i] {
			sampled++
		}
	}
	if sampled < 50 || sampled > 200 {
		t.Fatalf("rate 0.1 sampled %d/%d", sampled, n)
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical decision sequences")
	}
}

func TestChildAndRemoteSampling(t *testing.T) {
	tr := New(Config{Rate: 1, Seed: 1})
	ctx, root := tr.Start(context.Background(), "root")
	_, child := StartSpan(ctx, "child")
	if !child.Recording() {
		t.Fatal("child of recording span not recording")
	}
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child changed trace id")
	}
	child.End()
	root.End()

	// Remote continuation: sampled parent is honored even at rate 0.
	cold := New(Config{Rate: 0, Seed: 1})
	_, sp := cold.StartRemote(context.Background(), root.Context().Traceparent(), "continued")
	if !sp.Recording() {
		t.Fatal("sampled remote parent not continued at rate 0")
	}
	if sp.Context().TraceID != root.Context().TraceID {
		t.Fatal("remote continuation changed trace id")
	}
	sp.End()
	spans, ok := cold.Store().Trace(root.Context().TraceID)
	if !ok || len(spans) != 1 || spans[0].Parent != root.Context().SpanID {
		t.Fatalf("continued span not in store under parent: ok=%v spans=%v", ok, spans)
	}

	// Unsampled remote parent suppresses recording even at rate 1.
	unsampled := SpanContext{TraceID: root.Context().TraceID, SpanID: root.Context().SpanID, Sampled: false}
	_, sp2 := tr.StartRemote(context.Background(), unsampled.Traceparent(), "nope")
	if sp2.Recording() {
		t.Fatal("unsampled remote parent recorded")
	}
	sp2.End()

	// Malformed traceparent falls back to a fresh root decision.
	_, sp3 := tr.StartRemote(context.Background(), "garbage", "fresh")
	if !sp3.Recording() {
		t.Fatal("malformed traceparent did not fall back to sampling")
	}
	sp3.End()
}

// TestStoreWrapBoundedMemory asserts the ring buffer never retains more
// than its capacity and that the by-trace index is fully evicted along
// with overwritten slots.
func TestStoreWrapBoundedMemory(t *testing.T) {
	const capacity = 64
	tr := New(Config{Rate: 1, Seed: 3, Capacity: capacity})
	var last TraceID
	for i := 0; i < capacity*10; i++ {
		_, sp := tr.Start(context.Background(), fmt.Sprintf("op%d", i))
		last = sp.Context().TraceID
		sp.End()
	}
	st := tr.Store()
	if got := st.Len(); got != capacity {
		t.Fatalf("store retains %d spans, capacity %d", got, capacity)
	}
	// One span per trace here, so the index must hold exactly capacity
	// traces — every evicted slot must have taken its index entry along.
	if got := st.TraceCount(); got != capacity {
		t.Fatalf("index holds %d traces, want %d", got, capacity)
	}
	if _, ok := st.Trace(last); !ok {
		t.Fatal("most recent trace missing after wrap")
	}
	sums := st.Traces(0)
	if len(sums) != capacity {
		t.Fatalf("Traces() returned %d, want %d", len(sums), capacity)
	}
	if sums[0].TraceID != last.String() {
		t.Fatalf("most recent trace not first: got %s", sums[0].TraceID)
	}
	if got := st.Traces(5); len(got) != 5 {
		t.Fatalf("Traces(5) returned %d", len(got))
	}
}

// TestConcurrentHammer hammers span start/end/attr/export and store
// reads from many goroutines; run under -race in CI's concurrency job.
func TestConcurrentHammer(t *testing.T) {
	tr := New(Config{Rate: 0.5, Seed: 11, Capacity: 128})
	ms := NewMaintStats(0.2)
	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, sp := tr.Start(context.Background(), "root")
				sp.SetAttrInt("i", int64(i))
				_, child := StartSpan(ctx, "child")
				child.SetAttr("w", "x")
				child.End()
				sp.End()
				sp.End() // double End must stay a no-op
				ms.ObserveTarget("V", i, i, i*2, int64(i), 1, time.Microsecond)
				ms.ObserveRefresh(int64(i), 1, time.Microsecond, time.Duration(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if n := tr.Store().Len(); n > 128 {
				t.Fatalf("store exceeded capacity: %d", n)
			}
			if n := tr.Open(); n != 0 {
				t.Fatalf("%d spans open after every worker ended its spans", n)
			}
			for _, sum := range tr.Store().Traces(10) {
				if spans, ok := tr.Store().Trace(mustTraceID(t, sum.TraceID)); ok {
					_ = Render(spans)
				}
			}
			snap := ms.Snapshot()
			if len(snap.Targets) != 1 || snap.Targets[0].Samples != workers*perWorker {
				t.Fatalf("stats snapshot %+v", snap)
			}
			return
		default:
			tr.Store().Traces(16)
			tr.Store().Len()
			ms.Snapshot()
		}
	}
}

func mustTraceID(t *testing.T, s string) TraceID {
	t.Helper()
	id, ok := ParseTraceID(s)
	if !ok {
		t.Fatalf("bad trace id %q", s)
	}
	return id
}

func TestEWMAConvergence(t *testing.T) {
	ms := NewMaintStats(0.5)
	for i := 0; i < 40; i++ {
		ms.ObserveTarget("V", 10, 8, 1000, 90, 10, 2*time.Millisecond)
	}
	snap := ms.Snapshot()
	if len(snap.Targets) != 1 {
		t.Fatalf("targets: %d", len(snap.Targets))
	}
	ts := snap.Targets[0]
	approx := func(got, want float64) bool { return got > want*0.99 && got < want*1.01 }
	if !approx(ts.DeltaEWMA, 10) || !approx(ts.AppliedEWMA, 8) || !approx(ts.ViewSizeEWMA, 1000) ||
		!approx(ts.RestrictedEWMA, 90) || !approx(ts.FullEWMA, 10) ||
		!approx(ts.RefreshNsEWMA, float64(2*time.Millisecond)) {
		t.Fatalf("EWMAs did not converge to constants: %+v", ts)
	}
	// First observation seeds directly; later ones move toward new value.
	ms2 := NewMaintStats(0.2)
	ms2.ObserveRefresh(100, 0, time.Millisecond, time.Second)
	if got := ms2.Snapshot().Pipeline.LagNsEWMA; got != float64(time.Second) {
		t.Fatalf("first lag obs should seed EWMA, got %v", got)
	}
	ms2.ObserveRefresh(100, 0, time.Millisecond, 2*time.Second)
	got := ms2.Snapshot().Pipeline.LagNsEWMA
	want := 0.2*float64(2*time.Second) + 0.8*float64(time.Second)
	if got != want {
		t.Fatalf("lag EWMA = %v, want %v", got, want)
	}
	// Negative lag (no emission timestamp) must not count.
	ms2.ObserveRefresh(1, 1, time.Millisecond, -1)
	if ms2.Snapshot().Pipeline.LagSamples != 2 {
		t.Fatal("negative lag counted as a sample")
	}
}

func TestRender(t *testing.T) {
	tr := New(Config{Rate: 1, Seed: 5, Capacity: 16})
	ctx, root := tr.Start(context.Background(), "source.apply")
	root.SetAttrInt("seq", 9)
	_, child := StartSpan(ctx, "journal.append")
	child.End()
	root.End()
	spans, ok := tr.Store().Trace(root.Context().TraceID)
	if !ok {
		t.Fatal("trace missing")
	}
	out := Render(spans)
	if !strings.Contains(out, "source.apply") || !strings.Contains(out, "  journal.append") {
		t.Fatalf("render missing spans or indentation:\n%s", out)
	}
	if !strings.Contains(out, "seq=9") {
		t.Fatalf("render missing attrs:\n%s", out)
	}
	if Render(nil) != "(no spans)\n" {
		t.Fatal("empty render")
	}
}
