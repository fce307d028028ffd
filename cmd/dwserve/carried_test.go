package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/remote"
	"dwcomplement/internal/replica"
	"dwcomplement/internal/workload"
)

// carriedSpecs are the two schemata the carried-answer streams run on: the
// paper's figure 1 (a key, an IND and a view whose complement is a real
// difference) and the Section-5 star (domain constraints, foreign keys and
// a complement stored beside a selective view), each with query texts that
// some updates reach and others do not — selections, joins, unions and
// differences. Each also has the shapes the carry plan's relevance rule
// must get right: a base read twice, once through ρ, under two σs; a
// difference with a σ on both sides; an or; a σ over both sides of a join,
// which cannot be pushed; a union under a join under a projection; and a σ
// on the joined side alone, whose key set restricts the other side's
// tuples until a change to its own side resets the plan.
var carriedSpecs = []struct {
	spec    string
	domain  int // values per attribute the update generator draws from
	queries []string
}{
	{testSpec, 8, []string{
		"Sale",
		"Emp",
		"Sale join Emp",
		"pi{item, age}(Sale join Emp)",
		"sigma{age > 5}(Emp)",
		"sigma{clerk = 'v03'}(Sale)",
		"pi{clerk}(Emp) minus pi{clerk}(Sale)",
		"pi{clerk}(Sale) union pi{clerk}(Emp)",
		"pi{clerk, boss}(sigma{age > 5}(Emp) join rho{clerk -> boss, age -> bage}(sigma{age < 2}(Emp)))",
		"pi{clerk}(sigma{age > 3}(Emp)) minus pi{clerk}(sigma{item = 'v01'}(Sale))",
		"sigma{age < 2 or clerk = 'v05'}(Emp)",
		"sigma{age > 4 or item = 'v01'}(Sale join Emp)",
		"pi{clerk, age}((pi{clerk}(Sale) union pi{clerk}(Emp)) join Emp)",
		"sigma{age > 5}(Sale join Emp)",
	}},
	{workload.Section5Spec, 400, []string{
		"sigma{qty > 200}(Order_paris)",
		"sigma{qty > 200}(Order_tokyo)",
		"sigma{okey = 7}(Order_tokyo)",
		"sigma{ckey = 3}(Order_paris join Customer)",
		"pi{okey, nation}(Order_tokyo join Customer)",
		"sigma{brand = 'brand-000'}((Order_paris union Order_tokyo) join Part)",
		"pi{ckey}(Customer) minus pi{ckey}(Order_tokyo)",
		"Customer",
		"pi{okey, o2}(sigma{qty > 200}(Order_paris) join pi{ckey, o2}(rho{okey -> o2, pkey -> p2, loc -> l2, qty -> q2}(sigma{qty < 20}(Order_paris))))",
		"pi{ckey}(sigma{nation = 'France'}(Customer)) minus pi{ckey}(sigma{qty > 100}(Order_paris))",
		"sigma{qty > 390 or okey = 5}(Order_tokyo)",
		"sigma{qty > 300 or nation = 'Japan'}(Order_tokyo join Customer)",
		"pi{okey, brand}((Order_paris union Order_tokyo) join Part)",
		"sigma{nation = 'France'}(Order_tokyo join Customer)",
	}},
}

// carriedCounts tallies how a stream's answers were served, those of the
// evaluated ones whose plan a commit had reached, the follower's
// re-bootstraps, and the plans its commits reset because a key set's side
// changed.
type carriedCounts struct{ evaluated, reused, carried, reached, bootstraps, keyResets int }

// runCarriedStream drives a leader and a follower through one random stream
// drawn from seed over carriedSpecs[spec]: constraint-respecting updates
// posted to the leader, the follower pulling the leader's stream a batch at
// a time or re-bootstrapping from its snapshot (a state replaced with no
// recorded update: a gap), and queries to the follower. Every answer the
// follower serves — evaluated, reused or carried — must be byte-equal to a
// fresh evaluation of Q̂ at the state its X-DW-Version names, encoded in
// the text's column order.
func runCarriedStream(t *testing.T, seed int64, spec int) carriedCounts {
	t.Helper()
	cs := carriedSpecs[spec]
	rng := rand.New(rand.NewSource(seed))
	boot := func() *dwc.Spec {
		s := mustSpec(t, cs.spec)
		if s.State == nil || s.State.Size() == 0 {
			s.State = s.DB.NewState()
			workload.FillSection5(s.State, 200)
		}
		return s
	}
	leaderSpec := boot()
	model := leaderSpec.State.Clone()
	gen := dwc.NewWorkloadGen(leaderSpec.DB, seed)
	gen.Domain = cs.domain
	leader, err := newServer(leaderSpec, dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(leader.handler())
	defer lts.Close()
	follower, err := newServer(boot(), dwc.Theorem22(), serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A follower whose loop has stopped before it began: the stream below
	// drives its bootstraps and batches one call at a time.
	stopped, stop := context.WithCancel(context.Background())
	stop()
	follower.StartFollower(stopped, lts.URL)
	defer follower.stopFollower()
	ctx := context.Background()
	client := replica.NewClient(lts.URL, follower.db, remote.Config{AttemptTimeout: time.Second, MaxRetries: -1, Seed: seed})
	bootstrap := func() {
		if err := follower.bootstrapFollower(ctx, client); err != nil {
			t.Fatal(err)
		}
	}
	bootstrap()

	var n carriedCounts
	q := "" // the last text asked: asked again half the time, so that most texts get carried
	var undo *dwc.Update
	do := func(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	fh := follower.handler()
	for step := 0; step < 300; step++ {
		switch x := rng.Intn(20); {
		case x < 7: // an update, valid on the model, to the leader
			// A third of them undo the one before, so that the commits a
			// carry composes hold inserts later deleted and deletes later
			// re-inserted.
			u := gen.Update(model, 1+rng.Intn(2), rng.Intn(3)).Normalize(model)
			if undo != nil && rng.Intn(3) == 0 {
				u = undo.Reverse()
			}
			if u.IsEmpty() {
				continue
			}
			if err := u.ApplyChecked(model); err != nil {
				continue // a draw the constraints refuse: W⁻¹ is only defined on states that keep them
			}
			undo = u
			ops := strings.NewReplacer("+", "insert ", "-", "delete ").Replace(u.String())
			if rec := do(leader.handler(), "POST", "/update", ops); rec.Code != http.StatusOK {
				t.Fatalf("update %q: %d %s", ops, rec.Code, rec.Body)
			}
		case x < 12: // the follower applies what the leader's stream holds
			b, err := client.FetchBatch(ctx, follower.cur.Load().lsn+1, 0)
			if err != nil {
				t.Fatal(err)
			}
			resets := follower.plans.snapshot().Resets
			follower.applyBatch(ctx, client, b)
			n.keyResets += int(follower.plans.snapshot().Resets - resets)
		case x < 13:
			bootstrap()
			n.bootstraps++
		default:
			if q == "" || rng.Intn(2) == 0 {
				q = cs.queries[rng.Intn(len(cs.queries))]
			}
			reused, carried, reached := follower.mReused.Value(), follower.carried.Load(), follower.fellBack[fellBackReached].Load()
			rec := do(fh, "GET", "/query?q="+url.QueryEscape(q), "")
			switch {
			case follower.carried.Load() > carried:
				n.carried++
			case follower.mReused.Value() > reused:
				n.reused++
			default:
				n.evaluated++
			}
			if follower.fellBack[fellBackReached].Load() > reached {
				n.reached++
			}
			checkFresh(t, follower, q, rec)
		}
	}
	return n
}

// checkFresh holds a /query response to a fresh evaluation of Q̂ at the
// published state, which the single-threaded stream has not moved since it
// was served.
func checkFresh(t *testing.T, srv *server, q string, rec *httptest.ResponseRecorder) {
	t.Helper()
	v := srv.cur.Load()
	if rec.Code != http.StatusOK || rec.Header().Get("X-DW-Version") != v.stamp() {
		t.Fatalf("%s: status %d at %q, want 200 at %q: %s", q, rec.Code, rec.Header().Get("X-DW-Version"), v.stamp(), rec.Body)
	}
	var served struct {
		Result struct{ Attributes []string } `json:"result"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	parsed := dwc.MustParseExpr(q)
	qHat, err := v.w.TranslateQuery(parsed)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dwc.EvalExpr(context.Background(), qHat, v.w)
	if err != nil {
		t.Fatal(err)
	}
	fresh := rows.Relation()
	if !slices.Equal(slices.Sorted(slices.Values(fresh.Attrs())), slices.Sorted(slices.Values(served.Result.Attributes))) {
		t.Fatalf("%s: served attributes %v, a fresh evaluation has %v", q, served.Result.Attributes, fresh.Attrs())
	}
	want, err := answerBody(parsed.String(), qHat.String(), relation.Project(fresh, served.Result.Attributes...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s at %s:\nserved %s\nfresh  %s", q, v.stamp(), rec.Body, want)
	}
}

// FuzzCarriedAnswer: random update streams and query texts over the
// figure-1 spec and the Section-5 star, with follower re-bootstraps; no
// answer, carried ones included, differs from a fresh evaluation at its
// state (runCarriedStream).
func FuzzCarriedAnswer(f *testing.F) {
	for seed := range int64(4) {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, star bool) {
		spec := 0
		if star {
			spec = 1
		}
		runCarriedStream(t, seed, spec)
	})
}

// TestCarriedStreamsCoverPaths: over fixed seeds on both schemata, the
// streams of FuzzCarriedAnswer serve answers all three ways, evaluate some
// because a commit reached their plan, re-bootstrap, and change a dimension
// inside a key set, so the fuzz checks each path rather than one.
func TestCarriedStreamsCoverPaths(t *testing.T) {
	for spec := range carriedSpecs {
		var total carriedCounts
		for seed := range int64(6) {
			n := runCarriedStream(t, seed, spec)
			total.evaluated += n.evaluated
			total.reused += n.reused
			total.carried += n.carried
			total.reached += n.reached
			total.bootstraps += n.bootstraps
			total.keyResets += n.keyResets
		}
		t.Logf("spec %d: %+v", spec, total)
		if total.evaluated == 0 || total.reused == 0 || total.carried == 0 || total.reached == 0 || total.bootstraps == 0 || total.keyResets == 0 {
			t.Errorf("spec %d: %+v; the streams must evaluate, reuse, carry, fall back on a reached plan, re-bootstrap and reset a key set", spec, total)
		}
	}
}
