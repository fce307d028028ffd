package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// EvalCtxAnalyzer enforces the repo's facade-vs-library discipline: the
// context-free convenience wrappers (algebra.Eval, PSJ.Eval,
// Complement.Reconstruct, ...) exist for the public facade,
// commands and tests; library code under internal/ must call the
// context-aware variants so cancellation and instrumentation propagate
// end to end.
var EvalCtxAnalyzer = &Analyzer{
	Name: "evalctx",
	Doc:  "internal/ code must use context-aware Eval/Answer/Refresh variants, not the facade wrappers",
	Run:  runEvalCtx,
}

// bannedWrappers lists the forbidden wrappers: defining package path,
// receiver type name ("" for package-level functions), function name and
// the alternative to suggest.
var bannedWrappers = []struct {
	pkg, recv, name, alt string
}{
	{"dwcomplement/internal/algebra", "", "Eval", "EvalCtx"},
	{"dwcomplement/internal/algebra", "", "MustEval", "EvalCtx"},
	{"dwcomplement/internal/view", "PSJ", "Eval", "EvalCtx"},
	{"dwcomplement/internal/view", "Set", "Eval", "EvalCtx"},
	{"dwcomplement/internal/core", "Complement", "MaterializeWarehouse", "MaterializeWarehouseCtx"},
	{"dwcomplement/internal/core", "Complement", "Reconstruct", "ReconstructCtx"},
	// The net/http convenience calls carry no context, so a remote
	// source that stops responding would hang library code forever.
	// internal/remote (and any other internal package talking HTTP)
	// must build requests with http.NewRequestWithContext so the
	// per-attempt deadlines and breaker-driven cancellation propagate.
	{"net/http", "", "Get", "NewRequestWithContext + Client.Do"},
	{"net/http", "", "Post", "NewRequestWithContext + Client.Do"},
	{"net/http", "", "PostForm", "NewRequestWithContext + Client.Do"},
	{"net/http", "", "Head", "NewRequestWithContext + Client.Do"},
	{"net/http", "", "NewRequest", "NewRequestWithContext"},
	{"net/http", "Client", "Get", "NewRequestWithContext + Client.Do"},
	{"net/http", "Client", "Post", "NewRequestWithContext + Client.Do"},
	{"net/http", "Client", "PostForm", "NewRequestWithContext + Client.Do"},
	{"net/http", "Client", "Head", "NewRequestWithContext + Client.Do"},
}

func runEvalCtx(pass *Pass) {
	// Only library code is constrained; the facade, commands, and the
	// wrappers' own packages may call the context-free forms.
	if !strings.Contains(pass.Pkg.PkgPath, "/internal/") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pass.Pkg.PkgPath {
				return true
			}
			recv := receiverName(fn)
			for _, w := range bannedWrappers {
				if fn.Pkg().Path() == w.pkg && fn.Name() == w.name && recv == w.recv {
					what := w.name
					if w.recv != "" {
						what = w.recv + "." + w.name
					}
					pass.Reportf(call.Pos(),
						"call to context-free %s.%s from library code; use %s so cancellation and stats propagate",
						shortPkg(w.pkg), what, w.alt)
					break
				}
			}
			return true
		})
	}
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
