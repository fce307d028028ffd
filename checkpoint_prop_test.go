package dwc_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	dwc "dwcomplement"
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
