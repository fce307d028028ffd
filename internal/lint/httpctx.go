package lint

import (
	"go/ast"
	"strings"
)

// HTTPCtx keeps library code on context-carrying HTTP requests: the
// net/http convenience calls carry no context, so a remote source that
// stops responding would hang library code forever. internal/remote and
// internal/replica (and any other internal package talking HTTP) must
// build requests with http.NewRequestWithContext so the per-attempt
// deadlines and breaker-driven cancellation propagate.
var HTTPCtx = &Analyzer{
	Name: "httpctx",
	Doc:  "internal/ code must build HTTP requests with a context, not the net/http convenience calls",
	Run:  runHTTPCtx,
}

// bannedHTTP maps each forbidden call ("Client.Get" for a method) to the
// context-carrying form to use instead.
var bannedHTTP = map[string]string{
	"Get":             "NewRequestWithContext + Client.Do",
	"Post":            "NewRequestWithContext + Client.Do",
	"PostForm":        "NewRequestWithContext + Client.Do",
	"Head":            "NewRequestWithContext + Client.Do",
	"NewRequest":      "NewRequestWithContext",
	"Client.Get":      "NewRequestWithContext + Client.Do",
	"Client.Post":     "NewRequestWithContext + Client.Do",
	"Client.PostForm": "NewRequestWithContext + Client.Do",
	"Client.Head":     "NewRequestWithContext + Client.Do",
}

func runHTTPCtx(pass *Pass) {
	// Only library code is constrained; commands and tests may use the
	// convenience calls.
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
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
				return true
			}
			what := fn.Name()
			if recv := receiverName(fn); recv != "" {
				what = recv + "." + what
			}
			if alt, ok := bannedHTTP[what]; ok {
				pass.Reportf(call.Pos(),
					"call to context-free http.%s from library code; use %s so cancellation and deadlines propagate",
					what, alt)
			}
			return true
		})
	}
}
