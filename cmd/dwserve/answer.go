package main

// The answer path (DESIGN §13): a query text is prepared once, then one
// append-style writer goes from an evaluated relation to the bytes
// encoding/json wrote for the documented shape, without boxing a value or
// reflecting over a map. The body is finished before the header is
// written, so a value JSON cannot carry is an error response and the
// query cache keeps the very bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	dwc "dwcomplement"
	"dwcomplement/internal/relation"
)

// queryCacheSize and queryCacheBytes cap the query cache: its entries, and
// the bytes of the answers they hold. Entries are evicted FIFO until a new
// one fits. The process benchmark's pool has 170 texts whose answers hold
// ≈ 1.7 MB.
const (
	queryCacheSize  = 256
	queryCacheBytes = 16 << 20
)

// queryEntry is what the query cache holds for one /query text: the plan —
// the parsed query Q and its translated, optimized Q̂, both rendered — the
// column order of its answers, and the last fresh, explain-free 200 answer
// to it (nil body until one), when, at which version (its X-DW-Version
// stamp) and from which state (gen) it is known to be Q(d), and what its
// evaluation cost in carry units (evalCost). The plan is a function of the
// text and the complement alone (Theorem 3.1), which is fixed for the
// server's life, so it is never invalidated; the answer, of the text and
// the state alone, is reused while the published version's gen is the
// entry's, and carried forward to a later gen when the commits since
// provably leave Q(d) unchanged (carries).
type queryEntry struct {
	*queryPlan

	body    []byte
	attrs   []string
	at      time.Time
	version string
	gen     uint64
	cost    int64
}

// inOrder returns r with its columns in the order of the text's first
// answer, which it records on the first call. The evaluator orders a
// join's columns by the sizes it meets, so without this two states holding
// one answer could encode it in two orders: a text's answers are
// byte-comparable across states, a carried one included.
func (e *queryEntry) inOrder(r *relation.Relation) *relation.Relation {
	if e.attrs == nil {
		e.attrs = r.Attrs()
	} else if !slices.Equal(r.Attrs(), e.attrs) {
		r = relation.Project(r, e.attrs...)
	}
	return r
}

// queryPlan is the part of a query entry fixed at its first request. It is
// shared by pointer, which keeps an entry small enough for the map to hold
// inline.
type queryPlan struct {
	q, qHat           dwc.Expr
	query, translated string

	// carry is built on the text's first carry check, never in plan: a
	// text that is only ever evaluated or reused pays nothing for it.
	carry atomic.Pointer[carryPlan]
}

// carryPlan returns the text's carry plan, building it on the first call.
func (p *queryPlan) carryPlan(db *dwc.Database) *carryPlan {
	if cp := p.carry.Load(); cp != nil {
		return cp
	}
	p.carry.CompareAndSwap(nil, newCarryPlan(p.q, db))
	return p.carry.Load()
}

// built returns e's carry plan if one has been built, else nil.
func (e queryEntry) built() *carryPlan {
	if e.queryPlan == nil {
		return nil
	}
	return e.carry.Load()
}

// queryCache is the one query-keyed map of the server, keyed by the raw q
// parameter: the plans /query evaluates, and the answers it reuses at an
// unchanged state and the ladder's LevelStale rung serves. The key sets of
// the registered carry plans count against its byte cap beside the bodies.
type queryCache struct {
	mu      sync.Mutex
	entries map[string]queryEntry
	order   []string     // store order, for FIFO eviction
	bytes   int          // the bodies' bytes
	misses  atomic.Int64 // texts parsed and translated
	plans   *carryRegistry
}

// newQueryCache returns an empty query cache whose carry plans register
// with plans.
func newQueryCache(plans *carryRegistry) *queryCache {
	return &queryCache{entries: map[string]queryEntry{}, plans: plans}
}

// get returns the entry held for a query text.
func (c *queryCache) get(src string) (queryEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[src]
	return e, ok
}

// put stores the entry for a query text as the newest, evicting the oldest
// until it fits both caps, unless the cache holds an answer for the text
// from e's generation or a later one — a reader that loaded an older
// version does not replace a newer answer — or e holds no answer and the
// text is held already. A body larger than the byte cap is not
// kept; its plan is. It returns the entry as stored, or the one it kept.
func (c *queryCache) put(src string, e queryEntry) (queryEntry, bool) {
	if len(e.body) > queryCacheBytes {
		e.body = nil
	}
	var evicted []*carryPlan
	defer func() {
		for _, p := range evicted {
			c.plans.unregister(p)
		}
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[src]; ok {
		if e.body == nil || cur.body != nil && cur.gen >= e.gen {
			return cur, false
		}
		e.queryPlan = cur.queryPlan // the text's one plan, whichever reader parsed it
		c.remove(slices.Index(c.order, src))
	} else if p := e.built(); p != nil && p.evicted.Load() { // the text comes back: its carry plan starts afresh
		e.queryPlan = &queryPlan{q: e.q, qHat: e.qHat, query: e.query, translated: e.translated}
	}
	keys := int(c.plans.keyBytes.Load())
	for len(c.order) > 0 && (len(c.order) >= queryCacheSize || c.bytes+len(e.body)+keys > queryCacheBytes) {
		if p := c.entries[c.order[0]].built(); p != nil { // leaving the cache: unregistered once c.mu is released
			keys -= int(p.keyBytes.Load())
			p.evicted.Store(true)
			evicted = append(evicted, p)
		}
		c.remove(0)
	}
	c.order = append(c.order, src)
	c.entries[src] = e
	c.bytes += len(e.body)
	if p := e.built(); p != nil && e.body != nil {
		p.budget.Store(e.cost)
		p.entryGen.Store(e.gen)
	}
	return e, true
}

// restamp records that e, the entry held for src when it was read, holds
// the answer at a later state (e.gen), as a carry finds it does: the entry
// keeps its place in the store order. An entry held at e.gen or a later
// generation stays as it is, and so does a text evicted since.
func (c *queryCache) restamp(src string, e queryEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.entries[src]
	if !ok || cur.gen >= e.gen || c.bytes+len(e.body)-len(cur.body) > queryCacheBytes {
		return
	}
	c.bytes += len(e.body) - len(cur.body) // none, unless an evaluation replaced the body meanwhile
	c.entries[src] = e
	if p := e.built(); p != nil {
		p.entryGen.Store(e.gen)
	}
}

// remove takes the i-th entry in store order out of the cache. Caller holds
// c.mu.
func (c *queryCache) remove(i int) {
	c.bytes -= len(c.entries[c.order[i]].body)
	delete(c.entries, c.order[i])
	c.order = slices.Delete(c.order, i, i+1)
}

// keyRoom returns the bytes a new registration's key sets may take.
func (c *queryCache) keyRoom() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return queryCacheBytes - int64(c.bytes) - c.plans.keyBytes.Load()
}

// plan returns the entry for a query text, parsing and translating it on a
// miss. Any version's warehouse translates it alike: they share the
// complement. A text that fails is not cached; one two readers miss at once
// keeps the first plan stored.
func (c *queryCache) plan(src string, w *dwc.Warehouse) (queryEntry, error) {
	if e, ok := c.get(src); ok {
		return e, nil
	}
	c.misses.Add(1)
	q, err := dwc.ParseExpr(src)
	if err != nil {
		return queryEntry{}, err
	}
	qHat, err := w.TranslateQuery(q)
	if err != nil {
		return queryEntry{}, err
	}
	e, _ := c.put(src, queryEntry{queryPlan: &queryPlan{q: q, qHat: qHat, query: q.String(), translated: qHat.String()}})
	return e, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on: \" \\ \b \f \n \r \t short escapes, \u00XX for the
// other control bytes and for < > &, \ufffd for each invalid UTF-8 byte,
// and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b', '\t', '\n', '\f', '\r':
				b = append(b, '\\', "btnvfr"[c-'\b']) // 8…13; \v has no short form and is not a case
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f in encoding/json's number format: ES6-style,
// 'e' notation below 1e-6 and from 1e21, a two-digit negative exponent
// trimmed to one (1e-07 → 1e-7). NaN and ±Inf have no JSON form.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("%v has no JSON representation", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendRelation appends r as the JSON object every route carries a
// relation in, rows in r.Order() (the total value order makes the wire
// order deterministic), each cell read from its page's vector. It fails on
// the first value JSON cannot carry. A relation without attributes has a
// nil attribute slice, which encoding/json wrote as null; so does this.
func appendRelation(b []byte, r *relation.Relation) ([]byte, error) {
	attrs, order, pages := r.Attrs(), r.Order(), slices.Collect(r.Batches())
	// Room for the rows at 8 bytes a value — a short number or string and
	// its comma — plus the keys and whatever the caller appends after; a
	// relation of long strings grows the buffer as it goes.
	b = slices.Grow(b, 256+16*len(attrs)+len(order)*(2+8*len(attrs)))
	b = append(b, `{"attributes":`...)
	if attrs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, a := range attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a)
		}
		b = append(b, ']')
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(order)), 10)
	b = append(b, `,"tuples":[`...)
	for i, row := range order {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		pg, k := &pages[row/relation.BatchSize], int(row%relation.BatchSize)
		for c := range attrs {
			if c > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendCell(b, pg, c, k); err != nil {
				return nil, fmt.Errorf("attribute %q: %w", attrs[c], err)
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// appendCell appends row k of column c of a page as a JSON value, from the
// column's typed vector where it has one.
func appendCell(b []byte, pg *relation.Batch, c, k int) ([]byte, error) {
	if pg.IsNull(c, k) {
		return append(b, "null"...), nil
	}
	switch pg.ColKind(c) {
	case relation.ColInt:
		return strconv.AppendInt(b, pg.Ints(c)[k], 10), nil
	case relation.ColString:
		return appendJSONString(b, pg.Dict(c).Value(pg.Codes(c)[k])), nil
	case relation.ColFloat:
		return appendJSONFloat(b, pg.Floats(c)[k])
	case relation.ColBool:
		return strconv.AppendBool(b, pg.Bools(c)[k]), nil
	}
	switch v := pg.Value(c, k); v.Kind() { // a mixed-kind page holds the values themselves
	case relation.KindBool:
		return strconv.AppendBool(b, v.AsBool()), nil
	case relation.KindInt:
		return strconv.AppendInt(b, v.AsInt(), 10), nil
	case relation.KindFloat:
		return appendJSONFloat(b, v.AsFloat())
	case relation.KindString:
		return appendJSONString(b, v.AsString()), nil
	default:
		return append(b, "null"...), nil
	}
}

// answerBody is the body of /query: {"query":…,"result":…,"translated":…},
// and under ?explain the diagnostics in extra ("stats", "plan", "planText")
// beside them — those are small and fixed-shape, so they go through
// encoding/json, with the rows already encoded as a json.RawMessage.
func answerBody(query, translated string, r *relation.Relation, extra map[string]any) ([]byte, error) {
	if extra != nil {
		result, err := appendRelation(nil, r)
		if err != nil {
			return nil, err
		}
		extra["query"], extra["translated"], extra["result"] = query, translated, json.RawMessage(result)
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(extra)
		return buf.Bytes(), err
	}
	b := appendJSONString(append([]byte(nil), `{"query":`...), query)
	b, err := appendRelation(append(b, `,"result":`...), r)
	if err != nil {
		return nil, err
	}
	b = appendJSONString(append(b, `,"translated":`...), translated)
	return append(b, "}\n"...), nil
}

// writeBody sends a finished JSON body; its size is known, so it goes out
// with a Content-Length rather than chunked, and is flushed: the response
// has left before instrument writes its log line and metrics.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// A failed write or flush is the client gone; the request log has the
	// short byte count.
	_, _ = w.Write(body)
	_ = http.NewResponseController(w).Flush()
}

// appendAck appends the body of an update's ack: the bytes encoding/json
// writes, newline included, for the object of the changed relations (those
// with a change, by name), the refresh's wall time in ns, and the sizes of
// the normalized source update and of the warehouse change — keys in
// encoding/json's order.
func appendAck(b []byte, stats dwc.RefreshStats) []byte {
	names := make([]string, 0, len(stats.Changed))
	for name, n := range stats.Changed {
		if n > 0 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	b = append(b, `{"changedRelations":{`...)
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendJSONString(b, name), ':')
		b = strconv.AppendInt(b, int64(stats.Changed[name]), 10)
	}
	b = strconv.AppendInt(append(b, `},"refreshNs":`...), stats.Wall.Nanoseconds(), 10)
	b = strconv.AppendInt(append(b, `,"sourceChanges":`...), int64(stats.UpdateSize), 10)
	b = strconv.AppendInt(append(b, `,"warehouseChanges":`...), int64(stats.Total()), 10)
	return append(b, "}\n"...)
}

// writeRelation answers /relations/{name} and /reconstruct/{base}.
func writeRelation(w http.ResponseWriter, r *relation.Relation) {
	b, err := appendRelation(nil, r)
	if err != nil {
		writeUnencodable(w, err)
		return
	}
	writeBody(w, http.StatusOK, append(b, '\n'))
}

// writeUnencodable answers a request whose result holds a value JSON cannot
// carry: 500, because the request was fine and the answer exists — it is
// the server that cannot put it on this wire. Never null, which would read
// as SQL NULL.
func writeUnencodable(w http.ResponseWriter, err error) {
	writeError(w, http.StatusInternalServerError, fmt.Errorf("result not encodable as JSON: %w", err))
}
