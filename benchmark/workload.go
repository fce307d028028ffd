package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// workload names one of the contract's four traffic mixes and says
// which loops drive it. BENCHMARK.json repeats the names and reasons.
type workload struct {
	name     string
	why      string
	reader   bool // closed-loop pool queries against the leader
	writer   bool // closed-loop POST /update against the leader
	pipeline bool // dwsource -> leader -> follower, open-loop writer, lag reader
}

var workloads = []workload{
	{name: "query_ro", reader: true,
		why: "parse, translate, eval and JSON encode do all the work with warm caches; a write-path change must not move it"},
	{name: "update_wo", writer: true,
		why: "refresh, journal fsync and the checkpoint on every 64th ack own the time while the query engine idles"},
	{name: "mixed_rw", reader: true, writer: true,
		why: "each ack drops the caches and takes the lock the concurrent reader needs, so invalidation cost shows only here"},
	{name: "pipeline_lag", pipeline: true,
		why: "only here remote polling, integrator delivery, replica shipping and follower apply sit on the blocking path"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	warmup       = 2 * time.Second
	pipelineRate = 20.0 // updates per second posted to dwsource
	drainLimit   = 10 * time.Second
	pollPause    = 2 * time.Millisecond
	// Set-up is timed several times per run and the median reported:
	// one boot is at the mercy of a single scheduler hiccup.
	setupRepeats = 3
	// Every closed loop sends the yardstick one request before every
	// yardEvery-th request of its own.
	yardEvery = 4
	classYard = "yardstick"
)

// run is one execution of one workload.
type run struct {
	w       workload
	seconds time.Duration
	traced  bool
	h       *harness
	d       *dataset
	pool    *pool
	m       *model

	dataDir  string
	csvBytes int64

	source, leader, follower *proc
	yard                     *proc // the yardstick, see yardstick/main.go

	next int // next update index of the stream

	attempted, failed int
	problems          []string // failed correctness checks
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// sample is one timed operation of a load loop.
type sample struct {
	class   string
	start   time.Time
	latency time.Duration
	bytes   int
}

// loopResult is what one load loop hands back.
type loopResult struct {
	samples           []sample
	attempted, failed int
	lateness          []time.Duration // open loop only
}

// --- topology -------------------------------------------------------------

// Children run with default flags: only -spec, -addr, -snapshot-dir and
// -source / -follow (plus dwsource's mandatory -name and -owns) are set,
// so journal fsync per ack, -checkpoint-every 64, 1 % trace sampling and
// info-level request logging are what a user of the binaries gets.

func (r *run) startSource() (time.Duration, error) {
	p, err := r.h.spawn("dwsource", "dwsource", r.dataDir,
		"-spec", specFile, "-name", "orders", "-owns", sites[0].rel+","+sites[1].rel)
	if err != nil {
		return 0, err
	}
	r.source = p
	return p.waitReady("/healthz", nil)
}

func (r *run) startYardstick() (time.Duration, error) {
	p, err := r.h.spawn("yardstick", "yardstick", r.dataDir, "-dir", r.dataDir)
	if err != nil {
		return 0, err
	}
	r.yard = p
	return p.waitReady("/healthz", nil)
}

func (r *run) startLeader() (time.Duration, error) {
	args := []string{"-spec", specFile, "-snapshot-dir", filepath.Join(r.h.runDir, "leader")}
	if r.source != nil {
		args = append(args, "-source", "orders="+r.source.url)
	}
	p, err := r.h.spawn("leader", "dwserve", r.dataDir, args...)
	if err != nil {
		return 0, err
	}
	r.leader = p
	return p.waitReady("/readyz", nil)
}

// startFollower spawns a follower on an empty directory and waits until
// it is ready and has installed the leader's shipped snapshot; the
// follower checkpoints that snapshot locally as the last step of its
// bootstrap, so the checkpoint file marks the moment.
func (r *run) startFollower() (*proc, time.Duration, error) {
	dir, err := r.h.dir("follower")
	if err != nil {
		return nil, 0, err
	}
	p, err := r.h.spawn("follower", "dwserve", r.dataDir,
		"-spec", specFile, "-snapshot-dir", dir, "-follow", r.leader.url)
	if err != nil {
		return nil, 0, err
	}
	took, err := p.waitReady("/readyz", func() bool {
		_, err := os.Stat(filepath.Join(dir, "state.snap"))
		return err == nil
	})
	return p, took, err
}

// setup boots the workload's topology from nothing setupRepeats times
// and returns the spawn-to-ready times, and with each the boot time of a
// yardstick started just before it; the last boot is left running.
func (r *run) setup() (times, yardTimes []float64, err error) {
	repeats := setupRepeats
	if r.traced {
		repeats = 1 // a traced run does not report set-up time
	}
	for i := 0; i < repeats; i++ {
		r.stopAll()
		if _, err := r.h.dir("leader"); err != nil {
			return nil, nil, err
		}
		quiesce()
		took, err := r.startYardstick()
		if err != nil {
			return nil, nil, err
		}
		yardTimes = append(yardTimes, took.Seconds())
		var total time.Duration
		if r.w.pipeline {
			took, err := r.startSource()
			if err != nil {
				return nil, nil, err
			}
			total += took
		}
		if took, err = r.startLeader(); err != nil {
			return nil, nil, err
		}
		total += took
		if r.w.pipeline {
			p, took, err := r.startFollower()
			if err != nil {
				return nil, nil, err
			}
			r.follower = p
			total += took
		}
		times = append(times, total.Seconds())
	}
	return times, yardTimes, nil
}

// quiesce prepares the machine for timing a child's start-up. It
// collects the harness's own garbage now, so that its collector does
// not take a core from the child. And it hands the guest kernel a pool
// of free pages the host still backs: this sandbox's hypervisor takes
// free guest memory back within seconds, after which every page a
// child touches is a ~10 us host fault instead of a sub-microsecond
// guest one, and a 200 MB boot takes anything from 0.7 to 1.4 s
// depending on how long the machine sat idle. Touching and releasing
// warmMB just before the spawn makes start-up times measure the
// program, not the memory's history.
func quiesce() {
	debug.FreeOSMemory()
	b, err := syscall.Mmap(-1, 0, warmMB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return // conditioning only; the run is valid without it
	}
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	syscall.Munmap(b)
}

// warmMB covers a yardstick, a leader and a follower at the contract's
// data size.
const warmMB = 512

func (r *run) stopAll() {
	for _, p := range []**proc{&r.follower, &r.leader, &r.source, &r.yard} {
		if *p != nil {
			(*p).kill()
			*p = nil
		}
	}
}

// --- load loops -----------------------------------------------------------

// yardstick sends the yardstick one point lookup and records its timing
// among the loop's samples. The loops call it between their own
// requests, never beside them, so it takes no processor from the
// operation being timed. A run without yardstick samples fails.
func (r *run) yardstick(c *conn, i int, res *loopResult) {
	start := time.Now()
	status, _, err := c.get(r.yard.url + "/point?k=" + strconv.Itoa(1+i%r.d.ordersPerSite()))
	if err == nil && status == http.StatusOK {
		res.samples = append(res.samples, sample{classYard, start, time.Since(start), 0})
	}
}

// readLoop is the analyst: one connection, next query only after the
// previous answer. Inside the window it checks status and row count.
func (r *run) readLoop(base string, seed int64, until time.Time) loopResult {
	var res loopResult
	c, yc := newConn(), newConn()
	defer c.close()
	defer yc.close()
	rng := newRand(seed)
	for i := 0; time.Now().Before(until); i++ {
		if i%yardEvery == 0 {
			r.yardstick(yc, i, &res)
		}
		q := r.pool.draw(rng)
		start := time.Now()
		status, body, err := c.get(queryURL(base, q.text))
		lat := time.Since(start)
		res.attempted++
		n, ok := answerCount(body)
		if err != nil || status != http.StatusOK || !ok || n != q.rows {
			res.failed++
			continue
		}
		res.samples = append(res.samples, sample{q.class, start, lat, len(body)})
	}
	return res
}

// writeLoop is the closed-loop writer: POST /update, wait for the
// durable ack, send the next. Acked updates are applied to the model.
func (r *run) writeLoop(base string, until time.Time) loopResult {
	var res loopResult
	c, yc := newConn(), newConn()
	defer c.close()
	defer yc.close()
	for i := 0; time.Now().Before(until); i++ {
		if i%yardEvery == 0 {
			r.yardstick(yc, i, &res)
		}
		u := r.d.update(r.next)
		r.next++
		start := time.Now()
		status, _, err := c.post(base+"/update", u.body)
		lat := time.Since(start)
		res.attempted++
		if err != nil || status != http.StatusOK {
			res.failed++
			continue
		}
		r.m.ack(u)
		res.samples = append(res.samples, sample{"update", start, lat, len(u.body)})
	}
	return res
}

// lagTracker matches inserts posted to the source with the moment the
// follower first shows them. Keys of one site are inserted in order, so
// an answer containing key k proves every earlier key visible too.
type lagTracker struct {
	mu       sync.Mutex
	firstKey int             // okey of a site's first stream insert
	due      [2][]time.Time  // due time of the j-th insert of a site
	lost     [2]map[int]bool // inserts the source refused
	seen     [2]int          // inserts of a site known to be visible
}

func (t *lagTracker) posted(s int, due time.Time) {
	t.mu.Lock()
	t.due[s] = append(t.due[s], due)
	t.mu.Unlock()
}

func (t *lagTracker) refused(s, j int) {
	t.mu.Lock()
	t.lost[s][j] = true
	t.mu.Unlock()
}

// visible records that the answer completed at done showed maxKey at
// site s, and returns (due time, lag) of every insert it newly proves.
func (t *lagTracker) visible(s, maxKey int, done time.Time) (dues []time.Time, lags []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	upto := min(maxKey-t.firstKey+1, len(t.due[s]))
	for j := t.seen[s]; j < upto; j++ {
		if !t.lost[s][j] {
			dues = append(dues, t.due[s][j])
			lags = append(lags, done.Sub(t.due[s][j]))
		}
	}
	t.seen[s] = max(t.seen[s], upto)
	return dues, lags
}

// lastSeen is the highest key of a site known to be visible.
func (t *lagTracker) lastSeen(s int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.firstKey - 1 + t.seen[s]
}

// outstanding counts posted, accepted inserts not yet seen.
func (t *lagTracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for s := range t.due {
		for j := t.seen[s]; j < len(t.due[s]); j++ {
			if !t.lost[s][j] {
				n++
			}
		}
	}
	return n
}

// applyLoop is the open-loop source traffic: transactions are due at a
// fixed rate and posted to dwsource whether or not the warehouse keeps
// up; each is timed from its due time.
func (r *run) applyLoop(t *lagTracker, start, until time.Time) loopResult {
	var res loopResult
	c := newConn()
	defer c.close()
	loop := newOpenLoop(start, pipelineRate)
	for i := 0; loop.due(i).Before(until); i++ {
		u := r.d.update(r.next)
		r.next++
		var status int
		var err error
		p := loop.do(i, func() {
			t.posted(u.site, loop.due(i))
			status, _, err = c.post(r.source.url+"/apply", u.body)
		})
		res.attempted++
		res.lateness = append(res.lateness, p.lateness)
		if err != nil || status != http.StatusOK {
			res.failed++
			t.refused(u.site, (r.next-1)/2)
			continue
		}
		r.m.ack(u)
		res.samples = append(res.samples, sample{"apply", p.due, p.latency, len(u.body)})
	}
	return res
}

// lagLoop polls the follower for order keys beyond the last one seen,
// alternating sites, back to back. The samples it returns are
// update-to-visible lags, stamped with the update's due time. After
// until it keeps polling (unrecorded) until nothing is outstanding or
// the drain limit passes.
func (r *run) lagLoop(t *lagTracker, until time.Time, writerDone <-chan struct{}) (lags loopResult, polls loopResult) {
	c, yc := newConn(), newConn()
	defer c.close()
	defer yc.close()
	for s, i := 0, 0; ; s, i = 1-s, i+1 {
		if i%yardEvery == 0 {
			r.yardstick(yc, i, &polls)
		}
		now := time.Now()
		if !now.Before(until) {
			select {
			case <-writerDone:
				if t.outstanding() == 0 || now.Sub(until) > drainLimit {
					return lags, polls
				}
			default:
			}
		}
		q := fmt.Sprintf("sigma{okey > %d}(%s)", t.lastSeen(s), sites[s].rel)
		status, body, err := c.get(queryURL(r.follower.url, q))
		done := time.Now()
		polls.attempted++
		if err != nil || status != http.StatusOK {
			polls.failed++
			continue
		}
		polls.samples = append(polls.samples, sample{"poll", now, done.Sub(now), len(body)})
		rel, err := decodeRelation(body, true)
		if err != nil {
			polls.failed++
			continue
		}
		keys, err := rel.column("okey")
		if err != nil {
			polls.failed++
			continue
		}
		maxKey := 0
		for _, k := range keys {
			maxKey = max(maxKey, k)
		}
		dues, ls := t.visible(s, maxKey, done)
		for i := range dues {
			lags.samples = append(lags.samples, sample{"lag", dues[i], ls[i], 0})
		}
		time.Sleep(pollPause)
	}
}

// window is what the timed part of a run produced.
type window struct {
	start, end time.Time
	byClass    map[string][]sample // samples that began inside the window
	lateness   []time.Duration
}

// drive runs the workload's loops through warm-up and the timed window.
// The loops run without a pause between the two; a sample belongs to
// the window when it started (or, in the open loop, was due) inside it.
func (r *run) drive() window {
	t0 := time.Now()
	w := window{start: t0.Add(warmup), byClass: map[string][]sample{}}
	w.end = w.start.Add(r.seconds)
	var results []loopResult
	var mu sync.Mutex
	collect := func(res ...loopResult) {
		mu.Lock()
		results = append(results, res...)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	goLoop := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	if r.w.reader {
		goLoop(func() { collect(r.readLoop(r.leader.url, r.d.seed, w.end)) })
	}
	if r.w.writer {
		goLoop(func() { collect(r.writeLoop(r.leader.url, w.end)) })
	}
	if r.w.pipeline {
		t := &lagTracker{firstKey: r.d.ordersPerSite() + 1, lost: [2]map[int]bool{{}, {}}}
		writerDone := make(chan struct{})
		goLoop(func() {
			defer close(writerDone)
			collect(r.applyLoop(t, t0, w.end))
		})
		goLoop(func() {
			lags, polls := r.lagLoop(t, w.end, writerDone)
			// An accepted insert the follower never showed is a failed
			// operation of the workload's headline metric.
			lags.attempted = len(lags.samples) + t.outstanding()
			lags.failed = t.outstanding()
			collect(lags, polls)
		})
	}
	wg.Wait()
	for _, res := range results {
		r.attempted += res.attempted
		r.failed += res.failed
		w.lateness = append(w.lateness, res.lateness...)
		for _, s := range res.samples {
			if !s.start.Before(w.start) && s.start.Before(w.end) {
				w.byClass[s.class] = append(w.byClass[s.class], s)
			}
		}
	}
	return w
}

// --- oracle checks (outside the timed window) -----------------------------

// checkComplement is the process-level form of `dwctl vet` on the
// generated spec: exactly one complement is stored, C_Order_tokyo, so
// paris traffic bypasses the complement and tokyo traffic goes through.
func (r *run) checkComplement(c *conn) {
	var body struct {
		Entries []struct {
			Name        string `json:"name"`
			AlwaysEmpty bool   `json:"alwaysEmpty"`
		} `json:"entries"`
	}
	if err := c.fetchJSON(r.leader.url+"/complement", &body); err != nil {
		r.problem("complement: %v", err)
		return
	}
	var stored []string
	for _, e := range body.Entries {
		if !e.AlwaysEmpty {
			stored = append(stored, e.Name)
		}
	}
	if len(stored) != 1 || stored[0] != "C_Order_tokyo" {
		r.problem("stored complements are %v, want exactly C_Order_tokyo", stored)
	}
}

// checkPool compares every pool query's answer over HTTP with Q(d)
// evaluated on the model: Theorem 3.1, end to end.
func (r *run) checkPool(c *conn, base string) {
	for _, q := range r.pool.all {
		rel, err := c.fetchRelation(queryURL(base, q.text), true)
		if err != nil {
			r.problem("query %s: %v", q.text, err)
			continue
		}
		if d := diffRows(rel.canon(), r.m.answer(q)); d != "" {
			r.problem("query %s: %s", q.text, d)
		}
	}
}

// checkBases compares W^-1 of the served warehouse with the model state
// holding exactly the acknowledged updates: Proposition 2.1 plus
// Theorem 4.1, and after a SIGKILL the durability of every ack.
func (r *run) checkBases(c *conn, base, when string) {
	for _, name := range baseNames {
		rel, err := c.fetchRelation(base+"/reconstruct/"+name, false)
		if err != nil {
			r.problem("%s: reconstruct %s: %v", when, name, err)
			continue
		}
		if d := diffRows(rel.canon(), r.m.base(name)); d != "" {
			r.problem("%s: reconstruct %s: %s", when, name, d)
		}
	}
}

// checkFollower waits for the follower to reach the leader's log
// position and then requires every warehouse relation to be byte-equal
// on both (dwserve renders relations in a deterministic order).
func (r *run) checkFollower(c *conn, follower *proc) {
	type status struct {
		LSN uint64 `json:"lsn"`
	}
	var lead, foll status
	if err := c.fetchJSON(r.leader.url+"/replica/status", &lead); err != nil {
		r.problem("leader status: %v", err)
		return
	}
	deadline := time.Now().Add(drainLimit)
	for {
		if err := c.fetchJSON(follower.url+"/replica/status", &foll); err != nil {
			r.problem("follower status: %v", err)
			return
		}
		if foll.LSN >= lead.LSN {
			break
		}
		if time.Now().After(deadline) {
			r.problem("follower stuck at lsn %d, leader at %d", foll.LSN, lead.LSN)
			return
		}
		time.Sleep(pollInterval)
	}
	var sizes map[string]int
	if err := c.fetchJSON(r.leader.url+"/relations", &sizes); err != nil {
		r.problem("leader relations: %v", err)
		return
	}
	for name := range sizes {
		_, a, err := c.get(r.leader.url + "/relations/" + name)
		if err != nil {
			r.problem("leader relation %s: %v", name, err)
			continue
		}
		a = bytes.Clone(a)
		_, b, err := c.get(follower.url + "/relations/" + name)
		if err != nil {
			r.problem("follower relation %s: %v", name, err)
			continue
		}
		if !bytes.Equal(a, b) {
			r.problem("follower relation %s differs from the leader's", name)
		}
	}
}

// --- lifecycle after the window -------------------------------------------

// lifecycle is what the post-window script measured.
type lifecycle struct {
	rssMB        float64
	recoverS     float64
	bootstrapS   float64 // traced runs only
	storageRatio float64
}

// finish runs the same script after every workload: oracle checks, a
// SIGKILL of the leader and a restart on the same directory, on a
// traced run a fresh follower's bootstrap, and a graceful stop to size
// what is on disk.
func (r *run) finish() (lifecycle, error) {
	var lc lifecycle
	c := newConn()
	defer c.close()
	st, err := r.leader.stat()
	if err != nil {
		return lc, err
	}
	lc.rssMB = st.peakMB

	r.checkComplement(c)
	r.checkPool(c, r.leader.url)
	r.checkBases(c, r.leader.url, "after the window")
	if r.follower != nil {
		r.checkFollower(c, r.follower)
		r.follower.kill()
		r.follower = nil
	}

	// Process-kill test: SIGKILL loses nothing the OS already holds, so
	// this checks that an ack implies a completed write+fsync sequence
	// and that replay restores it, not that the bytes survive power loss.
	quiesce()
	r.leader.kill()
	took, err := r.startLeader()
	if err != nil {
		return lc, err
	}
	lc.recoverS = took.Seconds()
	r.checkBases(c, r.leader.url, "after SIGKILL and restart")

	if r.traced {
		p, took, err := r.startFollower()
		if err != nil {
			return lc, err
		}
		lc.bootstrapS = took.Seconds()
		r.checkFollower(c, p)
		p.kill()
	}

	if err := r.leader.terminate(30 * time.Second); err != nil {
		return lc, err
	}
	var stored int64
	for _, f := range []string{"state.snap", "wal.dwj"} {
		fi, err := os.Stat(filepath.Join(r.h.runDir, "leader", f))
		if err != nil {
			return lc, fmt.Errorf("after graceful stop: %w", err)
		}
		stored += fi.Size()
	}
	lc.storageRatio = float64(stored) / float64(r.csvBytes)
	r.leader = nil
	return lc, nil
}

var errNoSamples = errors.New("the timed window produced no samples of the workload's headline operation")
