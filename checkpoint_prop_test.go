package dwc_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	dwc "dwcomplement"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/snapshot"
)

// TestCheckpointRoundTripReconstructs is Prop. 2.1 carried across the
// disk format: for every spec under testdata, w = W(d) is encoded, the
// bytes are decoded, and W⁻¹ of what came back is d — under both
// complements. The decoded state also re-encodes to the same bytes, the
// property the follower byte-equality check stands on.
func TestCheckpointRoundTripReconstructs(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("testdata", "*.dw"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	for _, path := range specs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := dwc.ParseSpecAt(string(raw), filepath.Dir(path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, opts := range []dwc.Options{dwc.Proposition22(), dwc.Theorem22()} {
			comp, err := dwc.ComputeComplement(spec.DB, spec.Views, opts)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			w := dwc.NewWarehouse(comp)
			if err := w.Initialize(spec.State); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var enc bytes.Buffer
			if err := snapshot.SaveMarks(&enc, w.State(), map[string]uint64{"http": 1}); err != nil {
				t.Fatal(err)
			}
			ms, marks, err := snapshot.LoadMarks(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if err := dwc.VerifySnapshot(ms, comp.Resolver()); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var again bytes.Buffer
			if err := snapshot.SaveMarks(&again, ms, marks); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
				t.Errorf("%s: the decoded state re-encodes differently (error %v)", path, err)
			}
			back := dwc.NewWarehouse(comp)
			back.LoadState(ms)
			bases, err := back.ReconstructBases()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, name := range spec.DB.Names() {
				orig, _ := spec.State.Relation(name)
				if !bases[name].Equal(orig) {
					t.Errorf("%s: W⁻¹ of the decoded state gives %s = %v, want %v", path, name, bases[name], orig)
				}
			}
		}
	}
}

// sameState reports the first difference between two warehouse states.
func sameState(got, want map[string]*relation.Relation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d relations, want %d", len(got), len(want))
	}
	for name, r := range want {
		if !got[name].Equal(r) {
			return fmt.Errorf("relation %s differs", name)
		}
	}
	return nil
}

// TestCheckpointEncodesWhatChanged: on the Section-5 warehouse, after k
// random single-row updates a save encodes at most 3·k + (number of
// relations) pages — an insert writes the last page of what it changes, a
// delete the victim's page and the last, and a relation's last page may
// spill — whatever the warehouse's size, and load(save(w)) = w relation by
// relation, marks included, round after round.
func TestCheckpointEncodesWhatChanged(t *testing.T) {
	const rows = 20_000
	w := section5Warehouse(t, rows)
	db, m := w.Complement().Database(), dwc.NewMaintainer(w.Complement())
	path := filepath.Join(t.TempDir(), "state.snap")
	total := 0
	for _, r := range w.State() {
		total += r.NumPages()
	}
	st, err := snapshot.SaveFileMarksTimed(path, w.State(), nil)
	if err != nil || st.PagesEncoded != total || st.PagesReused != 0 {
		t.Fatalf("cold save of %d pages: %+v, error %v", total, st, err)
	}
	rng := rand.New(rand.NewSource(7))
	next := map[string]int{"paris": rows/2 + 1, "tokyo": rows/2 + 1}
	var churned []*dwc.Update // deletes of the rows inserted so far
	var seq uint64
	for round := 0; round < 12; round++ {
		k := 1 + rng.Intn(8)
		for i := 0; i < k; i++ {
			var u *dwc.Update
			switch op := rng.Intn(3); {
			case op == 0 && len(churned) > 0: // delete a row inserted earlier
				j := rng.Intn(len(churned))
				u = churned[j]
				churned = append(churned[:j], churned[j+1:]...)
			case op == 1: // delete a row of the initial load, wherever it is stored
				fact, _ := w.Relation("FactParis")
				skip := rng.Intn(rows / 4)
				for tu := range fact.All() {
					if fact.Get(tu, "okey").AsInt() > rows/2 {
						continue // inserted above: churned holds its delete
					}
					if skip--; skip < 0 {
						u = dwc.NewUpdate().MustDelete("Order_paris", db, fact.Get(tu, "okey"), fact.Get(tu, "ckey"), fact.Get(tu, "pkey"), fact.Get(tu, "loc"), fact.Get(tu, "qty"))
						break
					}
				}
			default:
				loc := []string{"paris", "tokyo"}[rng.Intn(2)]
				row := churnOrder(loc, next[loc], rows/20)
				next[loc]++
				u = dwc.NewUpdate().MustInsert("Order_"+loc, db, row...)
				churned = append(churned, dwc.NewUpdate().MustDelete("Order_"+loc, db, row...))
			}
			if rs, err := dwc.Refresh(context.Background(), m, w, u); err != nil || rs.Total() != 1 {
				t.Fatalf("round %d: the single-row update %v changed %d warehouse tuples (error %v)", round, u, rs.Total(), err)
			}
			seq++
		}
		marks := map[string]uint64{"http": seq, "~lsn": seq}
		st, err := snapshot.SaveFileMarksTimed(path, w.State(), marks)
		if err != nil || st.PagesEncoded > 3*k+len(w.State()) || st.PagesEncoded == 0 || st.PagesEncoded+st.PagesReused < total-k {
			t.Fatalf("round %d: save after %d single-row updates: %+v (error %v); want at most %d of some %d pages encoded",
				round, k, st, err, 3*k+len(w.State()), total)
		}
		ms, got, err := snapshot.LoadFileMarks(path)
		if err == nil {
			err = sameState(ms, w.State())
		}
		if err != nil || !maps.Equal(got, marks) {
			t.Fatalf("round %d: load(save(w)): %v, marks %v want %v", round, err, got, marks)
		}
	}
}

// TestSectionBytesPerRow pins what the Section-5 warehouse over 100k
// source rows costs in checkpoint sections: at most 6.5 bytes a row on the
// three order relations — their ints bit-packed from each page's minimum,
// loc a one-string dictionary with codes of no bits — and at most 800 000
// bytes in all. The generator is seeded, so the count repeats exactly.
func TestSectionBytesPerRow(t *testing.T) {
	w := section5Warehouse(t, 100_000)
	var total int64
	for name, r := range w.State() {
		n := r.SectionBytes()
		total += n
		t.Logf("%s: %d rows, %d section bytes", name, r.Len(), n)
		switch name {
		case "FactParis", "C_Order_tokyo", "TokyoFR":
			if perRow := float64(n) / float64(r.Len()); r.Len() == 0 || perRow > 6.5 {
				t.Errorf("%s: %d section bytes for %d rows, want at most 6.5 a row", name, n, r.Len())
			}
		}
	}
	if total > 800_000 {
		t.Errorf("the warehouse's sections hold %d bytes, want at most 800 000", total)
	}
	t.Logf("sections: %d bytes", total)
}

// TestCheckpointBesideCommittingWriter: a save reads a pinned version page
// by page — filling the slots those pages share with every later version —
// while the writer clones the newest version and writes to the clones. Run
// with -race. Each save must load back as exactly the version it was
// taken from.
func TestCheckpointBesideCommittingWriter(t *testing.T) {
	const rows, updates = 10_000, 300
	w := section5Warehouse(t, rows)
	db, m := w.Complement().Database(), dwc.NewMaintainer(w.Complement())
	var cur atomic.Pointer[dwc.Warehouse]
	cur.Store(w.Pin())
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer: the benchmark's churn, published like dwserve's commit does
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < updates; i++ {
			if _, err := dwc.Refresh(context.Background(), m, w, churnUpdate(db, rows, 8, i)); err != nil {
				t.Error(err)
				return
			}
			cur.Store(w.Pin())
		}
	}()
	saves, reused := 0, 0
	for last := false; !last; saves++ {
		last = done.Load() // one more save after the writer's last version
		v := cur.Load()
		path := filepath.Join(t.TempDir(), "state.snap")
		st, err := snapshot.SaveFileMarksTimed(path, v.State(), nil)
		if err != nil {
			t.Fatal(err)
		}
		reused += st.PagesReused
		ms, err := snapshot.LoadFile(path)
		if err == nil {
			err = sameState(ms, v.State())
		}
		if err != nil {
			t.Fatalf("save %d beside the writer: %v", saves, err)
		}
	}
	wg.Wait()
	if saves < 2 || reused == 0 {
		t.Fatalf("%d saves reused %d pages: the versions shared nothing", saves, reused)
	}
}
