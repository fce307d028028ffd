// Package lint is a dependency-free static-analysis framework for this
// repository: Layer 1 of the dwvet subsystem (see DESIGN.md §10). It
// loads and type-checks packages using only the standard library
// (go/parser + go/types, with export data produced by `go list -export`),
// runs a small catalog of analyzers encoding invariants this codebase
// relies on, and reports diagnostics with positions.
//
// The analyzers:
//
//   - goleak: goroutines must have a shutdown path — no inescapable
//     `for {}` loops, no calls to unstoppable listeners;
//   - httpctx: library code under internal/ must build HTTP requests
//     with a context, never the net/http convenience calls, so
//     deadlines and cancellation reach a remote that stops answering;
//   - lockorder: the repo-wide mutex acquisition-order graph (built
//     across call edges from the Facts store) must be acyclic — a cycle
//     is a potential deadlock;
//   - senterr: error messages describing sentinel conditions must wrap
//     the sentinel errors so errors.Is works across the public API.
//
// Other conventions are kept by the code's own shape rather than by an
// analyzer: the evaluator has no context-free entry point, every
// dispatch over algebra.Expr is checked by a kinds test in its package,
// and a trace.Tracer counts the spans left open.
//
// goleak and lockorder are interprocedural: they run over the dataflow
// layer (cfg.go, callgraph.go, facts.go) that Pass.Prog exposes.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
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
		GoLeak,
		HTTPCtx,
		LockOrder,
		SentErr,
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

// calleeFunc resolves the called *types.Func of a call, or nil for
// builtins, conversions, and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// receiverName returns the named type of a method's receiver (sans
// pointer), or "" for package-level functions.
func receiverName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// shortPkg trims an import path to its last element for messages.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
