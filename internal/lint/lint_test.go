package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testAnalyzer loads ./testdata/src/<fixture>, runs one analyzer, and
// matches its diagnostics against the fixture's `// want "substr"`
// comments: every want must be satisfied on its line, and no diagnostic
// may appear without one.
func testAnalyzer(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]

	type want struct {
		line    int
		substr  string
		matched bool
	}
	re := regexp.MustCompile(`// want "([^"]*)"`)
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := re.FindStringSubmatch(c.Text); m != nil {
					wants = append(wants, &want{line: pkg.Fset.Position(c.Pos()).Line, substr: m[1]})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", fixture)
	}

	for _, d := range Run([]*Package{pkg}, []*Analyzer{a}) {
		matched := false
		for _, w := range wants {
			if !w.matched && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at line %d containing %q", w.line, w.substr)
		}
	}
}

func TestHTTPCtx(t *testing.T)   { testAnalyzer(t, HTTPCtx, "httpctx") }
func TestSentErr(t *testing.T)   { testAnalyzer(t, SentErr, "senterr") }
func TestLockOrder(t *testing.T) { testAnalyzer(t, LockOrder, "lockorder") }
func TestGoLeak(t *testing.T)    { testAnalyzer(t, GoLeak, "goleak") }

func TestByName(t *testing.T) {
	as, err := ByName([]string{"senterr", "httpctx"})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "senterr" || as[1].Name != "httpctx" {
		t.Fatalf("ByName returned %v", as)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("expected error for unknown analyzer")
	}
}

// TestKnowsNoRelationInternals: a batch is a snapshot by construction in
// internal/relation, so no analyzer guards it, and none needs to know
// which relation methods write pages. The fixtures under testdata may
// import relation like any other client.
func TestKnowsNoRelationInternals(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"noteInserted", "noteDeleted", "Batches", "relation.Batch"} {
			if bytes.Contains(src, []byte(name)) {
				t.Errorf("%s names %s", f, name)
			}
		}
	}
}

// TestRepoClean is the acceptance gate: the repository's own packages
// must pass every analyzer. This is the same check CI runs via
// `dwlint ./...`, kept in-tree so plain `go test ./...` catches
// regressions too.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}
