// Package lint is a dependency-free static-analysis framework for this
// repository: Layer 1 of the dwvet subsystem (see DESIGN.md §10). It
// loads and type-checks packages using only the standard library
// (go/parser + go/types, with export data produced by `go list -export`),
// runs a small catalog of analyzers encoding invariants this codebase
// relies on, and reports diagnostics with positions.
//
// The analyzers:
//
//   - evalctx: library code under internal/ must call the context-aware
//     evaluation entry points, never the context-free wrappers reserved
//     for the public facade;
//   - planops: operator dispatch over algebra.Expr must be exhaustive, so
//     flat stats and plan trees cannot silently drift when an operator
//     kind is added;
//   - senterr: error messages describing sentinel conditions must wrap
//     the sentinel errors so errors.Is works across the public API;
//   - spanend: every span started via internal/trace must be finished
//     with End (deferred, or called before every return), or the trace
//     silently loses the instrumented operation;
//   - lockorder: the repo-wide mutex acquisition-order graph (built
//     across call edges from the Facts store) must be acyclic — a cycle
//     is a potential deadlock (the PR-5 handleResend inversion class);
//   - goleak: goroutines must have a shutdown path — no inescapable
//     `for {}` loops, no calls to unstoppable listeners;
//   - batchlife: no mutation or refresh of a relation while a Batch
//     window over it is live (the PR-6 use-after-invalidate class).
//
// The last three are interprocedural: they run over the dataflow layer
// (cfg.go, callgraph.go, facts.go) that Pass.Prog exposes.
//
// A diagnostic can be suppressed with a directive comment on the flagged
// line or the line above it:
//
//	//dwlint:ignore <analyzer>[,<analyzer>...] [reason]
//	//dwlint:ignore all [reason]
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in reports and ignore directives.
	Name string
	// Doc is a one-line description for `dwlint -list`.
	Doc string
	// Run reports the analyzer's findings on one package via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer run over one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole-program view shared by every pass of one Run
	// call; the interprocedural analyzers read the call graph and facts
	// through it.
	Prog   *Program
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a diagnostic carrying a suggested fix the driver
// can apply with -fix.
func (p *Pass) ReportFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// Edit builds a TextEdit replacing [start, end) with newText, resolving
// the positions so fixes can be applied without the FileSet.
func (p *Pass) Edit(start, end token.Pos, newText string) TextEdit {
	return TextEdit{
		Pos:     p.Pkg.Fset.Position(start),
		End:     p.Pkg.Fset.Position(end),
		NewText: newText,
	}
}

// Diagnostic is one analyzer finding. The JSON shape is the `-json`
// driver output consumed by CI.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	Fix      *SuggestedFix  `json:"fix,omitempty"`
}

// SuggestedFix is a concrete remediation: text edits the driver applies
// atomically per file under -fix.
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// TextEdit replaces the source range [Pos.Offset, End.Offset) of the
// file Pos.Filename with NewText. An insertion has Pos == End.
type TextEdit struct {
	Pos     token.Position `json:"pos"`
	End     token.Position `json:"end"`
	NewText string         `json:"newText"`
}

// String renders "file:line:col: [analyzer] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the analyzer catalog in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		BatchLife,
		EvalCtxAnalyzer,
		GoLeak,
		LockOrder,
		PlanOps,
		SentErr,
		SpanEnd,
	}
}

// ByName resolves analyzer names (comma-separated lists accepted by the
// driver) against the catalog.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to every package, filters diagnostics through
// the //dwlint:ignore directives, and returns the findings sorted by
// position then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: func(d Diagnostic) {
				if ig.suppresses(a.Name, d.Pos) {
					return
				}
				all = append(all, d)
			}}
			a.Run(pass)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

// ignoreSet maps file → line → analyzer names suppressed on that line.
type ignoreSet map[string]map[int]map[string]bool

// suppresses reports whether a diagnostic of the named analyzer at pos is
// covered by a directive on its line or the line above.
func (ig ignoreSet) suppresses(analyzer string, pos token.Position) bool {
	lines := ig[pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		if names := lines[ln]; names != nil && (names["all"] || names[analyzer]) {
			return true
		}
	}
	return false
}

// collectIgnores scans every comment of the package for ignore directives.
func collectIgnores(pkg *Package) ignoreSet {
	ig := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//dwlint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := ig[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					ig[pos.Filename] = lines
				}
				names := lines[pos.Line]
				if names == nil {
					names = make(map[string]bool)
					lines[pos.Line] = names
				}
				for _, n := range strings.Split(fields[0], ",") {
					names[strings.TrimSpace(n)] = true
				}
			}
		}
	}
	return ig
}
