// Package evalctx is the minimal failing fixture for the evalctx
// analyzer: it sits under internal/ and calls the context-free
// evaluation wrappers reserved for the public facade.
package evalctx

import (
	"context"
	"net/http"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/view"
)

func contextFree(e algebra.Expr, st algebra.State, v *view.PSJ, vs *view.Set) {
	_, _ = algebra.Eval(e, st)  // want "context-free algebra.Eval"
	_ = algebra.MustEval(e, st) // want "context-free algebra.MustEval"
	_, _ = v.Eval(st)           // want "context-free view.PSJ.Eval"
	_, _ = vs.Eval(st)          // want "context-free view.Set.Eval"
}

func contextFreeHTTP(c *http.Client) {
	_, _ = http.Get("http://src")                    // want "context-free http.Get"
	_, _ = http.Post("http://src", "", nil)          // want "context-free http.Post"
	_, _ = http.Head("http://src")                   // want "context-free http.Head"
	_, _ = http.NewRequest("GET", "http://src", nil) // want "context-free http.NewRequest"
	_, _ = c.Get("http://src")                       // want "context-free http.Client.Get"
	_, _ = c.Head("http://src")                      // want "context-free http.Client.Head"
}

func contextAwareHTTP(ctx context.Context, c *http.Client) {
	req, err := http.NewRequestWithContext(ctx, "GET", "http://src", nil)
	if err == nil {
		_, _ = c.Do(req)
	}
}

func contextAware(e algebra.Expr, st algebra.State, v *view.PSJ, vs *view.Set) {
	ec := algebra.NewEvalContext(nil)
	_, _ = algebra.EvalCtx(ec, e, st)
	_, _ = v.EvalCtx(ec, st)
	_, _ = vs.EvalCtx(ec, st)
}
