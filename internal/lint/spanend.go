package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// SpanEnd enforces the tracing layer's lifecycle contract in library
// code: every span started by internal/trace (Tracer.Start,
// Tracer.StartRemote, or the package-level StartSpan) must be finished,
// or it silently never reaches the ring buffer — the trace shows a hole
// exactly where the instrumented operation ran. A span is considered
// ended when the starting function defers its End (directly or inside a
// deferred closure) or when every CFG path from the start to the
// function's exit passes an End call. Discarding the span with _ is
// always a violation: an unnamed span cannot be ended.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "internal/ code must End every span started via internal/trace (defer, or before every return)",
	Run:  runSpanEnd,
}

const tracePkgPath = "dwcomplement/internal/trace"

// spanStart is one trace start site found in a function body.
type spanStart struct {
	name string // span variable ("" when discarded with _)
	fn   string // starting function, for the diagnostic
	pos  token.Pos
}

func runSpanEnd(pass *Pass) {
	// Only library code is constrained (matching evalctx); the trace
	// package itself starts and ends spans through its own internals.
	if !strings.Contains(pass.Pkg.PkgPath, "/internal/") || pass.Pkg.PkgPath == tracePkgPath {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkSpanBody(pass, body)
			}
			return true
		})
	}
}

// checkSpanBody verifies every span started directly in body over the
// body's CFG (nested function literals are checked separately by the
// Inspect above; their own starts and exits belong to them).
func checkSpanBody(pass *Pass, body *ast.BlockStmt) {
	cfg := BuildCFG(body)

	// Deferred ends finish the span on every path, including panics: a
	// direct `defer s.End()` or an End inside a deferred closure.
	deferred := map[string]bool{}
	for _, d := range cfg.Defers {
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if name, ok := spanEndOf(pass, call); ok {
						deferred[name] = true
					}
				}
				return true
			})
			continue
		}
		if name, ok := spanEndOf(pass, d.Call); ok {
			deferred[name] = true
		}
	}

	// Start sites, located by (block, statement index) for the path
	// check. Nested literals are skipped — their starts are theirs.
	type startSite struct {
		st    spanStart
		block *Block
		idx   int
	}
	var starts []startSite
	for _, b := range cfg.Blocks {
		for i, n := range b.Stmts {
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if as, ok := m.(*ast.AssignStmt); ok {
					if st, ok := spanStartOf(pass, as); ok {
						starts = append(starts, startSite{st: st, block: b, idx: i})
					}
				}
				return true
			})
		}
	}

	for _, s := range starts {
		if s.st.name == "" {
			pass.Reportf(s.st.pos,
				"span from trace.%s discarded with _; assign it and call End", s.st.fn)
			continue
		}
		if deferred[s.st.name] {
			continue
		}
		endsSpan := func(n ast.Node) bool {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				// An End handed to a closure (non-deferred) counts where
				// the closure appears, like any other statement content.
				if call, ok := m.(*ast.CallExpr); ok {
					if name, ok := spanEndOf(pass, call); ok && name == s.st.name {
						found = true
					}
				}
				return !found
			})
			return found
		}
		if cfg.EveryPathReaches(s.block, s.idx+1, endsSpan) {
			continue
		}
		pass.Reportf(s.st.pos,
			"span %q from trace.%s is not ended on every path; defer %s.End() or call it before each return",
			s.st.name, s.st.fn, s.st.name)
	}
}

// spanStartOf reports whether stmt assigns the result of a trace start
// call, returning the span variable's name ("" when discarded).
func spanStartOf(pass *Pass, stmt *ast.AssignStmt) (spanStart, bool) {
	if len(stmt.Rhs) != 1 || len(stmt.Lhs) != 2 {
		return spanStart{}, false
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok {
		return spanStart{}, false
	}
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != tracePkgPath {
		return spanStart{}, false
	}
	switch fn.Name() {
	case "StartSpan", "Start", "StartRemote":
	default:
		return spanStart{}, false
	}
	st := spanStart{fn: fn.Name(), pos: call.Pos()}
	if id, ok := stmt.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
		st.name = id.Name
	}
	return st, true
}

// spanEndOf reports whether call is <ident>.End() on a span variable,
// returning the variable name.
func spanEndOf(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != tracePkgPath || receiverName(fn) != "Span" {
		return "", false
	}
	return id.Name, true
}
