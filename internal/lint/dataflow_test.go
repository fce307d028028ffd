package lint

import (
	"bytes"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFactsRoundTrip: the fact set of a real program survives
// Encode/Decode bit-for-bit — the contract that lets a driver export
// facts from one run and import them into another.
func TestFactsRoundTrip(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/lockorder")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram(pkgs)
	facts := p.Facts()

	var buf bytes.Buffer
	if err := facts.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeFacts(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded.Funcs) != len(facts.Funcs) {
		t.Fatalf("decoded %d entries, want %d", len(decoded.Funcs), len(facts.Funcs))
	}
	for k, f := range facts.Funcs {
		g, ok := decoded.Funcs[k]
		if !ok {
			t.Errorf("decoded facts missing %s", k)
			continue
		}
		if !funcFactsEqual(f, g) {
			t.Errorf("facts for %s changed across round trip: %+v vs %+v", k, f, g)
		}
	}
	// Encoding the decoded set reproduces the stream (determinism).
	var buf2 bytes.Buffer
	if err := decoded.Encode(&buf2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	var buf1 bytes.Buffer
	if err := facts.Encode(&buf1); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Error("Encode is not deterministic across a round trip")
	}
}

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

// TestApplyFixes: suggested fixes land atomically, dry-run leaves the
// file untouched, and re-running on the fixed source is a no-op
// (idempotency — the property CI checks with `dwlint -fix -dry-run`).
func TestApplyFixes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.go")
	src := "package p\n\nfunc f() {\n\tstart()\n\twork()\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	insertAt := strings.Index(src, "start()") + len("start()")
	mkDiag := func() Diagnostic {
		d := Diagnostic{Analyzer: "spanend", Message: "not ended"}
		d.Pos.Filename = path
		d.Fix = &SuggestedFix{Message: "insert defer", Edits: []TextEdit{{NewText: "\n\tdefer end()"}}}
		d.Fix.Edits[0].Pos.Filename = path
		d.Fix.Edits[0].Pos.Offset = insertAt
		d.Fix.Edits[0].End.Filename = path
		d.Fix.Edits[0].End.Offset = insertAt
		return d
	}

	// Dry run: content computed, file unchanged.
	changed, fixed, err := ApplyFixes([]Diagnostic{mkDiag()}, true)
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 1 || len(changed) != 1 {
		t.Fatalf("dry-run: fixed=%d changed=%d, want 1/1", fixed, len(changed))
	}
	if got, _ := os.ReadFile(path); string(got) != src {
		t.Fatal("dry-run modified the file")
	}

	// Real run.
	changed, fixed, err = ApplyFixes([]Diagnostic{mkDiag()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 1 {
		t.Fatalf("fixed = %d, want 1", fixed)
	}
	want := "package p\n\nfunc f() {\n\tstart()\n\tdefer end()\n\twork()\n}\n"
	got, _ := os.ReadFile(path)
	if string(got) != want {
		t.Fatalf("fixed content:\n%s\nwant:\n%s", got, want)
	}
	if string(changed[path]) != want {
		t.Fatal("returned content differs from written content")
	}
}

// TestApplyFixesOverlap: conflicting edits do not corrupt the file —
// the first wins, the overlap is dropped.
func TestApplyFixesOverlap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	edit := func(start, end int, text string) Diagnostic {
		d := Diagnostic{Analyzer: "x", Message: "m"}
		d.Fix = &SuggestedFix{Edits: []TextEdit{{NewText: text}}}
		d.Fix.Edits[0].Pos.Filename = path
		d.Fix.Edits[0].Pos.Offset = start
		d.Fix.Edits[0].End.Filename = path
		d.Fix.Edits[0].End.Offset = end
		return d
	}
	changed, fixed, err := ApplyFixes([]Diagnostic{edit(1, 4, "X"), edit(2, 5, "Y")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 1 {
		t.Errorf("fixed = %d, want 1 (overlap dropped)", fixed)
	}
	if got := string(changed[path]); got != "aXef" {
		t.Errorf("content = %q, want %q", got, "aXef")
	}
}

// TestSpanEndCarriesFix: the spanend rewrite attaches the defer-End
// insertion that `dwlint -fix` applies.
func TestSpanEndCarriesFix(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/spanend")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{SpanEnd})
	withFix := 0
	for _, d := range diags {
		if d.Fix == nil {
			continue
		}
		withFix++
		if len(d.Fix.Edits) != 1 || !strings.Contains(d.Fix.Edits[0].NewText, "defer ") ||
			!strings.Contains(d.Fix.Edits[0].NewText, ".End()") {
			t.Errorf("unexpected fix edit: %+v", d.Fix.Edits)
		}
		if d.Fix.Edits[0].Pos.Offset != d.Fix.Edits[0].End.Offset {
			t.Errorf("fix should be a pure insertion, got [%d,%d)", d.Fix.Edits[0].Pos.Offset, d.Fix.Edits[0].End.Offset)
		}
	}
	if withFix == 0 {
		t.Fatal("no spanend diagnostic carries a suggested fix")
	}
}

// TestCatalog: the analyzer catalog covers all seven checks — the
// interprocedural trio included — so TestRepoClean and CI gate on the
// full set.
func TestCatalog(t *testing.T) {
	want := []string{"batchlife", "evalctx", "goleak", "lockorder", "planops", "senterr", "spanend"}
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

// TestCFGEveryPathReaches exercises the shared CFG on shapes the
// analyzers rely on: branch joins, loops, and terminating calls.
func TestCFGEveryPathReaches(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/spanend")
	if err != nil {
		t.Fatal(err)
	}
	// The spanend fixture's pass/fail cases already pivot on
	// EveryPathReaches through TestSpanEnd; here check graph shape
	// invariants on every function of the fixture.
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
		// The trivial predicate holds vacuously... only when every path
		// is covered; the never-true predicate can only hold for bodies
		// that never reach the exit.
		always := cfg.EveryPathReaches(cfg.Blocks[0], 0, func(n ast.Node) bool { return true })
		if !always && len(cfg.Blocks[0].Stmts) > 0 {
			t.Errorf("%s: always-true predicate not satisfied", u.Key)
		}
	}
}
