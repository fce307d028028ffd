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
//     `for {}` loops, no calls to unstoppable listeners.
//
// The last two are interprocedural: they run over the dataflow layer
// (cfg.go, callgraph.go, facts.go) that Pass.Prog exposes.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in reports and -only lists.
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

// Diagnostic is one analyzer finding. The JSON shape is the `-json`
// driver output consumed by CI.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// String renders "file:line:col: [analyzer] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the analyzer catalog in stable order.
func All() []*Analyzer {
	return []*Analyzer{
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

// Run applies the analyzers to every package and returns the findings
// sorted by position then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	prog := NewProgram(pkgs)
	report := func(d Diagnostic) { all = append(all, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: report})
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
