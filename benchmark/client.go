package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// conn is one keep-alive HTTP connection. Each load-generating loop owns
// exactly one, which is how the benchmark keeps to "at most nproc
// connections"; the body buffer is reused between requests.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// do sends a request and returns the status and the body, which stays
// valid until the connection's next request.
func (c *conn) do(method, target, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) get(target string) (int, []byte, error) { return c.do(http.MethodGet, target, "") }

func (c *conn) post(target, body string) (int, []byte, error) {
	return c.do(http.MethodPost, target, body)
}

func queryURL(base, q string) string { return base + "/query?q=" + url.QueryEscape(q) }

// answerCount reads "count" out of a /query response without decoding
// the tuples: inside the timed window the client checks status and row
// count only, and a full decode of a 1 000-row answer would take CPU
// from the server it shares two cores with. encoding/json writes map
// keys sorted, so "count" precedes "tuples" and the first match is it.
func answerCount(body []byte) (int, bool) {
	const key = `"count":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// relationJSON is how dwserve renders a relation or a query result.
type relationJSON struct {
	Attributes []string `json:"attributes"`
	Tuples     [][]any  `json:"tuples"`
	Count      int      `json:"count"`
}

// decodeRelation parses a relation from a response body; result selects
// the "result" member of a /query answer instead of the top level.
func decodeRelation(body []byte, result bool) (*relationJSON, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber() // keep integers exact
	var rel relationJSON
	if result {
		var wrap struct {
			Result relationJSON `json:"result"`
		}
		if err := dec.Decode(&wrap); err != nil {
			return nil, err
		}
		rel = wrap.Result
	} else if err := dec.Decode(&rel); err != nil {
		return nil, err
	}
	if rel.Count != len(rel.Tuples) {
		return nil, fmt.Errorf("count %d but %d tuples", rel.Count, len(rel.Tuples))
	}
	return &rel, nil
}

// canon renders the relation's rows in the generator's canonical form.
func (r *relationJSON) canon() []string {
	out := make([]string, len(r.Tuples))
	row := make(map[string]string, len(r.Attributes))
	for i, t := range r.Tuples {
		for c, a := range r.Attributes {
			row[a] = fmt.Sprint(t[c])
		}
		out[i] = canonRow(row)
	}
	sort.Strings(out)
	return out
}

// column returns one integer attribute of every row.
func (r *relationJSON) column(attr string) ([]int, error) {
	for c, a := range r.Attributes {
		if a != attr {
			continue
		}
		out := make([]int, len(r.Tuples))
		for i, t := range r.Tuples {
			n, ok := t[c].(json.Number)
			if !ok {
				return nil, fmt.Errorf("attribute %s is not a number", attr)
			}
			v, err := n.Int64()
			if err != nil {
				return nil, err
			}
			out[i] = int(v)
		}
		return out, nil
	}
	if len(r.Tuples) == 0 {
		return nil, nil
	}
	return nil, fmt.Errorf("no attribute %s in %v", attr, r.Attributes)
}

// diffRows explains the first difference between two canonical row
// lists, or returns "" when they are equal.
func diffRows(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %s, want %s", i, got[i], want[i])
		}
	}
	return ""
}

// fetchRelation GETs target and decodes the relation it returns.
func (c *conn) fetchRelation(target string, result bool) (*relationJSON, error) {
	status, body, err := c.get(target)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", target, status, bytes.TrimSpace(body))
	}
	rel, err := decodeRelation(body, result)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", target, err)
	}
	return rel, nil
}

// fetchJSON GETs target and decodes its body into v.
func (c *conn) fetchJSON(target string, v any) error {
	status, body, err := c.get(target)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", target, status)
	}
	return json.Unmarshal(body, v)
}
