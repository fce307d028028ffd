package lint

import "testing"

// TestFactsComputed: the interprocedural properties the analyzers rely
// on are actually derived on the lockorder fixture.
func TestFactsComputed(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/lockorder")
	if err != nil {
		t.Fatal(err)
	}
	facts := NewProgram(pkgs).Facts()
	const pkg = "dwcomplement/internal/lint/testdata/src/lockorder"
	seq := facts.get("(*" + pkg + ".Src).Seq")
	if len(seq.Acquires) != 1 || seq.Acquires[0] != "lockorder.Src.mu" {
		t.Errorf("Src.Seq acquires = %v, want [lockorder.Src.mu]", seq.Acquires)
	}
	apply := facts.get("(*" + pkg + ".Src).Apply")
	found := false
	for _, c := range apply.MayAcquire {
		if c == "lockorder.Server.mu" {
			found = true
		}
	}
	if !found {
		t.Errorf("Src.Apply MayAcquire = %v, want to include lockorder.Server.mu (via Notify)", apply.MayAcquire)
	}
	// Seeds are merged into every computed set.
	if !facts.get("net/http.ListenAndServe").NeverReturns {
		t.Error("seed fact for net/http.ListenAndServe missing")
	}
}

// TestCatalog: the analyzer catalog covers all four checks — the
// interprocedural pair included — so TestRepoClean and CI gate on the
// full set.
func TestCatalog(t *testing.T) {
	want := []string{"goleak", "httpctx", "lockorder", "senterr"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("catalog[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no doc line", a.Name)
		}
	}
}

// TestCFGEveryPathReaches checks the shared CFG's graph-shape
// invariants on every function of the lockorder fixture, whose held-set
// dataflow runs over it: one exit, last and without successors, and no
// dangling edges.
func TestCFGEveryPathReaches(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/lockorder")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(pkgs)
	for _, u := range prog.Units() {
		cfg := BuildCFG(u.Decl.Body)
		if len(cfg.Blocks) == 0 {
			t.Fatalf("%s: empty CFG", u.Key)
		}
		if cfg.Exit != cfg.Blocks[len(cfg.Blocks)-1] {
			t.Errorf("%s: exit is not the last block", u.Key)
		}
		if len(cfg.Exit.Succs) != 0 {
			t.Errorf("%s: exit has successors", u.Key)
		}
		for _, b := range cfg.Blocks {
			for _, s := range b.Succs {
				if s.Index < 0 || s.Index >= len(cfg.Blocks) || cfg.Blocks[s.Index] != s {
					t.Errorf("%s: block %d has dangling successor", u.Key, b.Index)
				}
			}
		}
	}
}
