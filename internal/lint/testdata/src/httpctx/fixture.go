// Package httpctx is the minimal failing fixture for the httpctx
// analyzer: it sits under internal/ and issues HTTP requests that carry
// no context.
package httpctx

import (
	"context"
	"net/http"
)

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
