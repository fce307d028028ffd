package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/journal"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/testmain"
	"dwcomplement/internal/workload"
)

func TestMain(m *testing.M) { testmain.Run(m) }

func testDB(t *testing.T) *catalog.Database {
	t.Helper()
	return workload.Figure1(false).DB
}

func rec(t *testing.T, db *catalog.Database, epoch, lsn, seq uint64) journal.Record {
	t.Helper()
	u := catalog.NewUpdate().MustInsert("Sale", db,
		relation.String_(fmt.Sprintf("item-%d", lsn)), relation.String_("Mary"))
	return journal.Record{Source: "http", Seq: seq, Update: u, Epoch: epoch, LSN: lsn}
}

// appendRec frames r and appends it to l.
func appendRec(l *Log, r journal.Record) error {
	frame, err := journal.Frame(r)
	if err != nil {
		return err
	}
	return l.Append(r, frame)
}

func TestMetaMarksRoundTrip(t *testing.T) {
	src := map[string]uint64{"sales": 7, "company": 3}
	all := WithMetaMarks(src, 4, 99)
	if len(all) != 4 {
		t.Fatalf("combined marks: %v", all)
	}
	sources, epoch, lsn := SplitMetaMarks(all)
	if epoch != 4 || lsn != 99 {
		t.Fatalf("epoch=%d lsn=%d, want 4 99", epoch, lsn)
	}
	if len(sources) != 2 || sources["sales"] != 7 || sources["company"] != 3 {
		t.Fatalf("sources: %v", sources)
	}
	// A pre-replication marks map has no meta keys: coordinates zero.
	sources, epoch, lsn = SplitMetaMarks(src)
	if epoch != 0 || lsn != 0 || len(sources) != 2 {
		t.Fatalf("legacy marks: sources=%v epoch=%d lsn=%d", sources, epoch, lsn)
	}
	if !IsMetaMark(MarkEpoch) || !IsMetaMark(MarkLSN) || IsMetaMark("sales") {
		t.Fatal("IsMetaMark misclassifies")
	}
}

func TestLogAppendValidation(t *testing.T) {
	db := testDB(t)
	l := NewLog(0)
	l.Reset(0, 1)
	if err := appendRec(l, rec(t, db, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Gap: LSN 3 when tip is 1.
	if err := appendRec(l, rec(t, db, 1, 3, 3)); err == nil {
		t.Fatal("gapped LSN accepted")
	}
	// Wrong epoch.
	if err := appendRec(l, rec(t, db, 2, 2, 2)); err == nil {
		t.Fatal("wrong-epoch record accepted")
	}
	if err := appendRec(l, rec(t, db, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if l.Tip() != 2 || l.Epoch() != 1 {
		t.Fatalf("tip=%d epoch=%d", l.Tip(), l.Epoch())
	}
}

func TestLogFromTrimFuture(t *testing.T) {
	db := testDB(t)
	l := NewLog(3) // retain only 3 records
	l.Reset(0, 1)
	for lsn := uint64(1); lsn <= 5; lsn++ {
		if err := appendRec(l, rec(t, db, 1, lsn, lsn)); err != nil {
			t.Fatal(err)
		}
	}
	// Retention 3 of 5 appended: base=2, retained LSNs 3..5.
	if _, _, _, err := l.From(1, 0); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("from=1: %v, want ErrTrimmed", err)
	}
	if _, _, _, err := l.From(2, 0); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("from=2 (== base): %v, want ErrTrimmed", err)
	}
	entries, tip, epoch, err := l.From(3, 0)
	if err != nil || tip != 5 || epoch != 1 {
		t.Fatalf("from=3: tip=%d epoch=%d err=%v", tip, epoch, err)
	}
	if len(entries) != 3 || entries[0].LSN != 3 || entries[2].LSN != 5 {
		t.Fatalf("entries: %+v", entries)
	}
	// max caps the page.
	entries, _, _, _ = l.From(3, 2)
	if len(entries) != 2 || entries[1].LSN != 4 {
		t.Fatalf("paged entries: %+v", entries)
	}
	// Caught up: empty batch, no error.
	entries, _, _, err = l.From(6, 0)
	if err != nil || len(entries) != 0 {
		t.Fatalf("from=tip+1: %d entries, err=%v", len(entries), err)
	}
	// Beyond tip+1: divergent follower.
	if _, _, _, err := l.From(7, 0); !errors.Is(err, ErrFuture) {
		t.Fatalf("from=7: %v, want ErrFuture", err)
	}
	// Frames decode back to the original records.
	sr := journal.NewStreamReader(bytes.NewReader(retainedFrames(t, l, 3)), db)
	var lsns []uint64
	for {
		r, err := sr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, r.LSN)
	}
	if len(lsns) != 3 || lsns[0] != 3 || lsns[2] != 5 {
		t.Fatalf("decoded LSNs: %v", lsns)
	}
}

func retainedFrames(t *testing.T, l *Log, from uint64) []byte {
	t.Helper()
	entries, _, _, err := l.From(from, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, e := range entries {
		buf.Write(e.Frame)
	}
	return buf.Bytes()
}

func TestLogWaitWakesOnAppend(t *testing.T) {
	db := testDB(t)
	l := NewLog(0)
	l.Reset(0, 1)
	done := make(chan struct{})
	go func() {
		l.Wait(context.Background(), 1, 5*time.Second)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := appendRec(l, rec(t, db, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on append")
	}
}

func TestLogWaitHonorsContext(t *testing.T) {
	l := NewLog(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		l.Wait(ctx, 1, time.Minute)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on context cancel")
	}
}

// fakeLeader serves the replication endpoints straight off a Log and a
// fixed snapshot, standing in for dwserve in client tests.
type fakeLeader struct {
	db    *catalog.Database
	log   *Log
	marks map[string]uint64
	// tearAfter, when > 0, truncates the stream body mid-frame after
	// that many complete frames (simulating a connection cut).
	tearAfter int
}

func (f *fakeLeader) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replica/snapshot", func(w http.ResponseWriter, r *http.Request) {
		st := workload.Figure1State(f.db)
		ms := map[string]*relation.Relation{
			"Sale": st.MustRelation("Sale"),
			"Emp":  st.MustRelation("Emp"),
		}
		epoch, lsn := f.log.Epoch(), f.log.Tip()
		w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
		w.Header().Set(HeaderLSN, strconv.FormatUint(lsn, 10))
		snapshot.SaveMarks(w, ms, WithMetaMarks(f.marks, epoch, lsn))
	})
	mux.HandleFunc("GET /replica/stream", func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		entries, tip, epoch, err := f.log.From(from, 0)
		switch {
		case errors.Is(err, ErrTrimmed):
			http.Error(w, err.Error(), http.StatusGone)
			return
		case errors.Is(err, ErrFuture):
			http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
			return
		}
		w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
		w.Header().Set(HeaderTip, strconv.FormatUint(tip, 10))
		for i, e := range entries {
			if f.tearAfter > 0 && i == f.tearAfter {
				w.Write(e.Frame[:len(e.Frame)/2]) // cut mid-frame
				return
			}
			w.Write(e.Frame)
		}
	})
	return mux
}

func testClientConfig() remote.Config {
	return remote.Config{
		AttemptTimeout:   time.Second,
		MaxRetries:       1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		Seed:             1,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
		PollWait:         100 * time.Millisecond,
		PollInterval:     time.Millisecond,
	}
}

func TestClientSnapshotAndStream(t *testing.T) {
	db := testDB(t)
	log := NewLog(0)
	log.Reset(0, 2)
	leader := &fakeLeader{db: db, log: log, marks: map[string]uint64{"sales": 5}}
	for lsn := uint64(1); lsn <= 4; lsn++ {
		if err := appendRec(log, rec(t, db, 2, lsn, lsn)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(leader.handler())
	defer srv.Close()

	c := NewClient(srv.URL, db, testClientConfig())
	ship, err := c.FetchSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ship.Epoch != 2 || ship.LSN != 4 {
		t.Fatalf("shipment epoch=%d lsn=%d, want 2 4", ship.Epoch, ship.LSN)
	}
	if ship.Marks["sales"] != 5 || IsMetaMark(MarkEpoch) && ship.Marks[MarkEpoch] != 0 {
		t.Fatalf("shipment marks: %v (meta marks must be split out)", ship.Marks)
	}
	if ship.State["Sale"] == nil || ship.State["Sale"].Len() != 3 {
		t.Fatalf("shipment state: %v", ship.State)
	}

	batch, err := c.FetchBatch(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Epoch != 2 || batch.Tip != 4 || batch.Torn {
		t.Fatalf("batch epoch=%d tip=%d torn=%v", batch.Epoch, batch.Tip, batch.Torn)
	}
	if len(batch.Records) != 4 || batch.Records[0].LSN != 1 || batch.Records[3].LSN != 4 {
		t.Fatalf("batch records: %+v", batch.Records)
	}
	if h := c.Health(); h.State != "healthy" {
		t.Fatalf("health after success: %+v", h)
	}
}

func TestClientTornStreamReturnsPrefix(t *testing.T) {
	db := testDB(t)
	log := NewLog(0)
	log.Reset(0, 1)
	for lsn := uint64(1); lsn <= 4; lsn++ {
		if err := appendRec(log, rec(t, db, 1, lsn, lsn)); err != nil {
			t.Fatal(err)
		}
	}
	leader := &fakeLeader{db: db, log: log, tearAfter: 2}
	srv := httptest.NewServer(leader.handler())
	defer srv.Close()

	c := NewClient(srv.URL, db, testClientConfig())
	batch, err := c.FetchBatch(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Torn {
		t.Fatal("torn stream not flagged")
	}
	// Exactly the complete prefix — the cut record never surfaces.
	if len(batch.Records) != 2 || batch.Records[1].LSN != 2 {
		t.Fatalf("torn batch records: %+v", batch.Records)
	}
}

func TestClientTrimmedAndFuture(t *testing.T) {
	db := testDB(t)
	log := NewLog(2)
	log.Reset(0, 1)
	for lsn := uint64(1); lsn <= 5; lsn++ {
		if err := appendRec(log, rec(t, db, 1, lsn, lsn)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer((&fakeLeader{db: db, log: log}).handler())
	defer srv.Close()
	c := NewClient(srv.URL, db, testClientConfig())
	if _, err := c.FetchBatch(context.Background(), 1, 0); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("behind retention: %v, want ErrTrimmed", err)
	}
	if _, err := c.FetchBatch(context.Background(), 100, 0); !errors.Is(err, ErrFuture) {
		t.Fatalf("past tip: %v, want ErrFuture", err)
	}
	// Protocol verdicts ride a working transport: breaker stays closed.
	if c.Breaker().State() != remote.BreakerClosed {
		t.Fatalf("breaker %v after protocol verdicts", c.Breaker().State())
	}
}

func TestClientFencesStaleEpoch(t *testing.T) {
	db := testDB(t)
	log := NewLog(0)
	log.Reset(0, 3) // leader still serving epoch 3
	srv := httptest.NewServer((&fakeLeader{db: db, log: log}).handler())
	defer srv.Close()
	c := NewClient(srv.URL, db, testClientConfig())
	c.SetMinEpoch(5) // follower has seen epoch 5 — this leader is deposed
	if _, err := c.FetchBatch(context.Background(), 1, 0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale leader stream: %v, want ErrStaleEpoch", err)
	}
	if _, err := c.FetchSnapshot(context.Background()); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale leader snapshot: %v, want ErrStaleEpoch", err)
	}
	if h := c.Health(); h.State != "fenced" {
		t.Fatalf("health after fencing: %+v", h)
	}
	// The floor never lowers.
	c.SetMinEpoch(2)
	if c.MinEpoch() != 5 {
		t.Fatalf("min epoch lowered to %d", c.MinEpoch())
	}
}

func TestClientQuarantinesDeadLeader(t *testing.T) {
	db := testDB(t)
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // dead from the start
	cfg := testClientConfig()
	cfg.MaxRetries = 0
	c := NewClient(srv.URL, db, cfg)
	for i := 0; i < cfg.BreakerThreshold; i++ {
		if _, err := c.FetchBatch(context.Background(), 1, 0); err == nil {
			t.Fatal("fetch from dead leader succeeded")
		}
	}
	if c.Breaker().State() == remote.BreakerClosed {
		t.Fatal("breaker still closed after threshold failures")
	}
	if _, err := c.FetchBatch(context.Background(), 1, 0); !errors.Is(err, remote.ErrQuarantined) {
		t.Fatalf("quarantined fetch: %v, want ErrQuarantined", err)
	}
	if h := c.Health(); h.State != "quarantined" {
		t.Fatalf("health: %+v", h)
	}
	if c.Staleness() <= 0 {
		t.Fatal("staleness not advancing while leader is down")
	}
}

// TestClientRefetchesCorruptBatch: a frame whose checksum holds around
// bytes that are no record (here a relation naming an attribute twice,
// which panicked the parent's follower inside relation.New) is a corrupt
// batch: the attempt fails, the retry re-fetches, nothing partial
// surfaces. The same relation in a snapshot's manifest is
// snapshot.ErrCorrupt.
func TestClientRefetchesCorruptBatch(t *testing.T) {
	db := testDB(t)
	log := NewLog(0)
	log.Reset(0, 1)
	for lsn := uint64(1); lsn <= 2; lsn++ {
		if err := appendRec(log, rec(t, db, 1, lsn, lsn)); err != nil {
			t.Fatal(err)
		}
	}
	hostile := []byte{1, 's', 1, 1, 1, 1, 4, 'S', 'a', 'l', 'e', 2, 1, 'a', 1, 'a', 0, 0}
	framed := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(len(hostile))), crc32.ChecksumIEEE(hostile))
	framed = append(framed, hostile...)
	good := (&fakeLeader{db: db, log: log}).handler()
	var streams, snapshots atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderEpoch, "1")
		switch {
		case r.URL.Path == "/replica/stream" && streams.Add(1) == 1:
			w.Header().Set(HeaderTip, "2")
			w.Write(framed)
		case r.URL.Path == "/replica/snapshot":
			snapshots.Add(1)
			manifest := hostile[5:] // one relation, the same one, no marks
			hdr := binary.BigEndian.AppendUint32([]byte("DWS5"), crc32.ChecksumIEEE(manifest))
			w.Write(append(binary.BigEndian.AppendUint64(hdr, uint64(len(manifest))), manifest...))
		default:
			good.ServeHTTP(w, r)
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL, db, testClientConfig())
	batch, err := c.FetchBatch(context.Background(), 1, 0)
	if err != nil || batch.Torn || len(batch.Records) != 2 || streams.Load() != 2 {
		t.Fatalf("batch %+v after %d fetches, error %v; want the 2 records of the re-fetch", batch, streams.Load(), err)
	}
	_, err = c.FetchSnapshot(context.Background())
	if !errors.Is(err, snapshot.ErrCorrupt) || !errors.Is(err, relation.ErrEncoding) || snapshots.Load() != 2 {
		t.Fatalf("snapshot error %v after %d attempts; want ErrCorrupt from both", err, snapshots.Load())
	}
}

// TestLogAppendCostIndependentOfRetain: once the log is full, an append
// reuses the oldest slot, so its allocations and bytes per append are the
// same at a retention of 1 024 as at 16 384 — no copy of the retained
// entries per record.
func TestLogAppendCostIndependentOfRetain(t *testing.T) {
	db := testDB(t)
	perAppend := func(retain int) (allocs, bytes float64) {
		l := NewLog(retain)
		l.Reset(0, 1)
		r := rec(t, db, 1, 1, 1)
		frame, err := journal.Frame(r)
		if err != nil {
			t.Fatal(err)
		}
		appendNext := func() {
			r.LSN++
			if err := l.Append(r, frame); err != nil {
				t.Fatal(err)
			}
		}
		r.LSN = 0
		for i := 0; i < retain+8; i++ {
			appendNext()
		}
		const n = 4096
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			appendNext()
		}
		runtime.ReadMemStats(&after)
		if l.Tip() != uint64(retain+8+n) {
			t.Fatalf("retain %d: tip %d, want %d", retain, l.Tip(), retain+8+n)
		}
		return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	smallAllocs, smallBytes := perAppend(1024)
	bigAllocs, bigBytes := perAppend(16384)
	if bigAllocs > smallAllocs+0.5 || bigBytes > smallBytes+64 {
		t.Fatalf("append on a full log: %.1f allocs, %.0f B at retain 16384 vs %.1f allocs, %.0f B at 1024",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}

// TestFetchBatchWaitOutlastsPollWait: the attempt deadline covers the
// wait the caller asked for, not the configured PollWait — a long poll
// against an idle leader returns an empty batch and leaves the link
// healthy.
func TestFetchBatchWaitOutlastsPollWait(t *testing.T) {
	db := testDB(t)
	log := NewLog(0)
	log.Reset(0, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.Atoi(r.URL.Query().Get("wait"))
		log.Wait(r.Context(), 1, time.Duration(ms)*time.Millisecond)
		w.Header().Set(HeaderEpoch, "1")
		w.Header().Set(HeaderTip, "0")
	}))
	defer srv.Close()
	cfg := testClientConfig()
	cfg.AttemptTimeout = 50 * time.Millisecond
	cfg.PollWait = 10 * time.Millisecond
	c := NewClient(srv.URL, db, cfg)
	batch, err := c.FetchBatch(context.Background(), 1, 300*time.Millisecond)
	if err != nil || len(batch.Records) != 0 {
		t.Fatalf("idle long poll: batch %+v, err %v; want an empty batch", batch, err)
	}
	if h := c.Health(); h.State != "healthy" || h.ConsecutiveFailures != 0 || h.Breaker != "closed" {
		t.Fatalf("health after an idle long poll: %+v", h)
	}
}
