package core

import (
	"os"
	"path/filepath"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/parse"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// TestTargetsAreViewsThenStoredComplements pins the default layout on every
// committed spec and the benchmark's: W stores the views, then the stored
// complements, in that order and under those names, and W⁻¹ is written in
// exactly those names.
func TestTargetsAreViewsThenStoredComplements(t *testing.T) {
	specs := map[string]string{"workload.Section5Spec": workload.Section5Spec}
	paths, err := filepath.Glob("../../testdata/*.dw")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata specs: %v, %d files", err, len(paths))
	}
	for _, p := range append(paths, "../../testdata/vet/known_good.dw") {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		specs[p] = string(raw)
	}
	for name, src := range specs {
		spec, err := parse.SpecText(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, opts := range []Options{Proposition22(), Theorem22()} {
			c, err := Compute(spec.DB, spec.Views, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var want []Target
			for _, v := range spec.Views.Views() {
				want = append(want, Target{v.Name, v.Expr(), v.ProjSet()})
			}
			for _, e := range c.StoredEntries() {
				sc, _ := spec.DB.Schema(e.Base)
				want = append(want, Target{e.Name, e.Def, sc.AttrSet()})
			}
			got := c.Targets()
			if len(got) != len(want) {
				t.Fatalf("%s: %d targets, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i].Name != want[i].Name || !algebra.Equal(got[i].Def, want[i].Def) || !got[i].Attrs.Equal(want[i].Attrs) {
					t.Errorf("%s: target %d = %s %v = %s, want %s %v = %s", name, i,
						got[i].Name, got[i].Attrs, got[i].Def, want[i].Name, want[i].Attrs, want[i].Def)
				}
			}
			checkInversesOverResolver(t, name, c)
		}
	}
}

// checkInversesOverResolver asserts that every inverse reads only names the
// warehouse stores.
func checkInversesOverResolver(t *testing.T, name string, c *Complement) {
	t.Helper()
	res := c.Resolver()
	for base, inv := range c.InverseMap() {
		for b := range algebra.Bases(inv) {
			if _, ok := res[b]; !ok {
				t.Errorf("%s: inverse of %s reads %q, not a stored target: %s", name, base, b, inv)
			}
		}
	}
}

func TestFoldErrors(t *testing.T) {
	sc := workload.Figure1(false)
	c := MustCompute(sc.DB, sc.Views, Proposition22())
	folded := algebra.NewBase("Folded")
	for _, tc := range []struct {
		name  string
		parts map[string]algebra.Expr
	}{
		{"Sale", map[string]algebra.Expr{"Sold": folded}},                    // a base relation's name
		{"C_Emp", map[string]algebra.Expr{"Sold": folded}},                   // another stored target's name
		{"Folded", map[string]algebra.Expr{"Nope": folded}},                  // not a stored target
		{"Folded", map[string]algebra.Expr{"Sold": folded, "C_Emp": folded}}, // differing attributes
		{"Folded", nil},
	} {
		if _, err := c.Fold(tc.name, tc.parts); err == nil {
			t.Errorf("Fold(%s, %v) accepted", tc.name, tc.parts)
		}
	}
	// Folding one view into itself under a new name rewrites W⁻¹ only.
	f, err := c.Fold("Folded", map[string]algebra.Expr{"Sold": folded})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Targets()[0]; got.Name != "Folded" || !got.Attrs.Equal(relation.NewAttrSet("item", "clerk", "age")) {
		t.Errorf("folded target = %s %v", got.Name, got.Attrs)
	}
	checkInversesOverResolver(t, "folded Figure 1", f)
	if _, ok := c.Resolver()["Sold"]; !ok {
		t.Error("Fold modified the complement it was called on")
	}
	st := workload.NewGen(sc.DB, 3).State(12)
	if err := f.CheckReconstruction([]algebra.State{st}); err != nil {
		t.Error(err)
	}
}
