package relation

import (
	"sort"
	"strings"
)

// Index is a hash index over a subset of a relation's attributes: it maps
// the 64-bit hash of the indexed columns to the positions of the candidate
// rows. Buckets are collision lists — two distinct key values may share a
// hash — so every probe re-verifies the actual key columns with
// Value.Equal before treating a row as a match. Indexes are built lazily
// by the join operators, are cached on the owning relation keyed by the
// (sorted) attribute set, and follow every mutation in place: an insert
// appends its row (extend), a delete applies the relation's swap-with-last
// to the chains (deleteRow) — or drops the index when that would walk a
// chain longer than maxChainWalk, so a handle must not be kept across a
// delete. Clone copies them to the new owner.
type Index struct {
	owner *Relation
	attrs []string // indexed attributes, sorted
	pos   []int    // column positions of attrs in the owning relation

	// The bucket structure is an open-addressed table of chain heads plus
	// a per-row link array — three flat allocations total, regardless of
	// how many distinct keys the index holds (a map of bucket slices costs
	// one allocation per distinct key). Chains are singly linked: a delete
	// walks its chain to the row, at most maxChainWalk steps.
	slots   []int32  // 0 empty, else head row of a hash chain, +1
	next    []int32  // next[i]: next row with i's key hash, -1 ends the chain
	keyHash []uint64 // per-row hash of the indexed columns
	keys    int      // number of distinct key hashes

	// keyVals, when present, holds row i's key values flat at
	// [i*k, (i+1)*k), k = len(pos). Hit verification then reads this
	// contiguous arena instead of chasing the owner's scattered per-row
	// tuple arrays — the hit path's dominant cost is that cache miss, not
	// the comparison. The arena costs an O(rows) allocation and copy, so
	// it is only materialized when the build-time probe-size hint says
	// enough probes will amortize it; small-delta probes (the restricted
	// maintenance shape) verify against the owner rows directly.
	keyVals []Value
}

// head returns the first owner row whose indexed columns hash to h, or -1.
// Further rows of the same hash chain follow via next. Linear probing:
// distinct hashes landing on one slot spill to the following slots, so a
// probe walks until it finds its hash's chain or an empty slot.
func (ix *Index) head(h uint64) int32 {
	mask := uint64(len(ix.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		v := ix.slots[s]
		if v == 0 {
			return -1
		}
		if ri := v - 1; ix.keyHash[ri] == h {
			return ri
		}
	}
}

// Attrs returns the indexed attribute names in sorted order. The caller
// must not modify the returned slice.
func (ix *Index) Attrs() []string { return ix.attrs }

// Keys returns the number of distinct key hashes the index discriminates.
// Hash collisions make this a lower bound on the number of distinct key
// values; it is used only as a cardinality estimate.
func (ix *Index) Keys() int { return ix.keys }

// Unique reports whether the indexed attributes form a key of the owning
// relation (no two rows agree on all indexed columns).
func (ix *Index) Unique() bool {
	_, _, dup := ix.dupPair()
	return !dup
}

// dupPair returns some pair of owner rows that agree on every indexed
// column, if one exists. A multi-row chain alone does not produce a pair —
// it may be a hash collision between distinct keys — so chains are
// re-verified column by column.
func (ix *Index) dupPair() (int32, int32, bool) {
	if ix.keys == len(ix.next) { // every chain is a singleton
		return 0, 0, false
	}
	for _, v := range ix.slots {
		for a := v - 1; a >= 0; a = ix.next[a] {
			for b := ix.next[a]; b >= 0; b = ix.next[b] {
				if ix.rowsAgreeOnKey(a, b) {
					return a, b, true
				}
			}
		}
	}
	return 0, 0, false
}

// rowsAgreeOnKey reports whether two owner rows hold equal values in every
// indexed column.
func (ix *Index) rowsAgreeOnKey(a, b int32) bool {
	ta, tb := ix.owner.rows[a], ix.owner.rows[b]
	for _, p := range ix.pos {
		if !ta[p].Equal(tb[p]) {
			return false
		}
	}
	return true
}

// keyEqual reports whether owner row ri agrees, on the indexed columns,
// with tuple t read at positions tPos (the probe-side column positions in
// the same sorted attribute order as ix.pos). Chains group rows by their
// full 64-bit key hash, so this verification runs only against rows whose
// key hash already equals the probe's — it is the collision insurance, not
// the discriminator.
func (ix *Index) keyEqual(ri int32, t Tuple, tPos []int) bool {
	if ix.keyVals != nil {
		kv := ix.keyVals[int(ri)*len(ix.pos):]
		for i := range ix.pos {
			if !kv[i].Equal(t[tPos[i]]) {
				return false
			}
		}
		return true
	}
	rt := ix.owner.rows[ri]
	for i, p := range ix.pos {
		if !rt[p].Equal(t[tPos[i]]) {
			return false
		}
	}
	return true
}

// Lookup returns copies of the rows whose indexed columns equal vals,
// given in the index's (sorted) attribute order.
func (ix *Index) Lookup(vals ...Value) []Tuple {
	t := Tuple(vals)
	identity := make([]int, len(vals))
	for i := range identity {
		identity[i] = i
	}
	var out []Tuple
	for ri := ix.head(t.hash64()); ri >= 0; ri = ix.next[ri] {
		if ix.keyEqual(ri, t, identity) {
			out = append(out, ix.owner.rows[ri].Clone())
		}
	}
	return out
}

// indexKey is the cache key for an index over the given sorted attributes.
// Attribute names never contain NUL (they come from identifiers), so the
// join is unambiguous.
func indexKey(sortedAttrs []string) string { return strings.Join(sortedAttrs, "\x00") }

// Index returns the relation's cached hash index over the given
// attributes, building and caching it on first use. It returns ok=false
// if some attribute is not part of the relation. Concurrent readers may
// build indexes on a shared relation; the cache is internally locked.
func (r *Relation) Index(attrs ...string) (*Index, bool) {
	sorted := append([]string(nil), attrs...)
	for _, a := range sorted {
		if !r.HasAttr(a) {
			return nil, false
		}
	}
	// keep the canonical cache key independent of caller order
	sort.Strings(sorted)
	ix, _ := r.indexFor(sorted, indexKey(sorted), 0)
	return ix, true
}

// IndexCount returns the number of cached indexes, for tests asserting
// that mutations carry them.
func (r *Relation) IndexCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.indexes)
}

// indexFor returns the cached index for the given sorted attribute list
// (all of which must exist in r), building it if absent. It reports
// whether a build happened, so operators can count cache misses.
// probeHint is the number of probes the caller is about to issue; a build
// materializes the keyVals arena only when that many probes amortize its
// O(rows) cost.
func (r *Relation) indexFor(sortedAttrs []string, key string, probeHint int) (*Index, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.indexes[key]; ix != nil {
		return ix, false
	}
	pos := make([]int, len(sortedAttrs))
	for i, a := range sortedAttrs {
		pos[i] = r.pos[a]
	}
	n := len(r.rows)
	ix := &Index{
		owner:   r,
		attrs:   append([]string(nil), sortedAttrs...),
		pos:     pos,
		slots:   make([]int32, tableSizeFor(n)),
		next:    make([]int32, 0, n),
		keyHash: make([]uint64, 0, n),
	}
	if probeHint*2 >= n {
		ix.keyVals = make([]Value, 0, n*len(pos))
	}
	ix.extend(0)
	if r.indexes == nil {
		r.indexes = make(map[string]*Index)
	}
	r.indexes[key] = ix
	return ix, true
}

// cloneFor returns a copy of the index owned by owner, which must hold
// the same rows in the same order as the original's owner.
func (ix *Index) cloneFor(owner *Relation) *Index {
	c := &Index{
		owner:   owner,
		attrs:   ix.attrs,
		pos:     ix.pos,
		slots:   append([]int32(nil), ix.slots...),
		next:    append([]int32(nil), ix.next...),
		keyHash: append([]uint64(nil), ix.keyHash...),
		keys:    ix.keys,
	}
	if ix.keyVals != nil {
		c.keyVals = append([]Value(nil), ix.keyVals...)
	}
	return c
}

// put chains owner row i (which must be the next unindexed row) under its
// key hash h.
func (ix *Index) put(i int, h uint64) {
	ix.next = append(ix.next, -1)
	ix.keyHash = append(ix.keyHash, h)
	mask := uint64(len(ix.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		v := ix.slots[s]
		if v == 0 {
			ix.slots[s] = int32(i) + 1
			ix.keys++
			return
		}
		if j := v - 1; ix.keyHash[j] == h {
			// Same key hash: prepend to the chain this slot heads.
			ix.next[i] = j
			ix.slots[s] = int32(i) + 1
			return
		}
	}
}

// rebuildSlots re-derives the slot table for the rows already indexed,
// sized for capacity rows.
func (ix *Index) rebuildSlots(capacity int) {
	ix.slots = make([]int32, tableSizeFor(capacity))
	ix.keys = 0
	mask := uint64(len(ix.slots) - 1)
	for i, h := range ix.keyHash {
		ix.next[i] = -1
		for s := h & mask; ; s = (s + 1) & mask {
			v := ix.slots[s]
			if v == 0 {
				ix.slots[s] = int32(i) + 1
				ix.keys++
				break
			}
			if j := v - 1; ix.keyHash[j] == h {
				ix.next[i] = j
				ix.slots[s] = int32(i) + 1
				break
			}
		}
	}
}

// extend indexes the owner rows from position from onward — the initial
// build (from 0) and the incremental append paths share it. Insertions
// keep cached indexes alive: a refresh applies small deltas to large
// stored relations, and rebuilding every index from scratch per update
// was the dominant cost of restricted maintenance.
func (ix *Index) extend(from int) {
	r := ix.owner
	n := len(r.rows)
	if n*3 > len(ix.slots)*2 {
		ix.rebuildSlots(2 * n)
	}
	fullWidth := len(ix.pos) == len(r.attrs)
	for i := from; i < n; i++ {
		t := r.rows[i]
		if ix.keyVals != nil {
			for _, p := range ix.pos {
				ix.keyVals = append(ix.keyVals, t[p])
			}
		}
		// Full-width indexes hash the same columns as the membership
		// table; reuse the stored row hashes instead of re-hashing.
		if fullWidth {
			ix.put(i, r.hashes[i])
		} else {
			ix.put(i, hashCols(t, ix.pos))
		}
	}
}

// keyVec is a cached vector of per-row hashes over an attribute subset —
// the probe-side complement of an Index: joins and semijoins re-probe the
// same relations with the same shared attributes across calls (and across
// refreshes, on stored relations), and re-hashing the key columns row by
// row was the probe loop's largest fixed cost.
type keyVec struct {
	pos    []int
	hashes []uint64
}

// keyHashesFor returns the per-row hashes of the given sorted attribute
// subset (which must all exist in r), building and caching the vector on
// first use. A full-width subset is answered from the stored tuple hashes
// (tuple hashes are column-order independent). The build costs exactly
// the hashing pass a caller would otherwise run inline, so cold callers
// lose nothing. The cache is internally locked, like the index cache.
func (r *Relation) keyHashesFor(sortedAttrs []string, key string) []uint64 {
	if len(sortedAttrs) == len(r.attrs) {
		return r.hashes
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if kv := r.keyVecs[key]; kv != nil {
		return kv.hashes
	}
	pos := make([]int, len(sortedAttrs))
	for i, a := range sortedAttrs {
		pos[i] = r.pos[a]
	}
	kv := &keyVec{pos: pos, hashes: make([]uint64, len(r.rows))}
	for i, t := range r.rows {
		kv.hashes[i] = hashCols(t, pos)
	}
	if r.keyVecs == nil {
		r.keyVecs = make(map[string]*keyVec)
	}
	r.keyVecs[key] = kv
	return kv.hashes
}

// peekIndex returns the cached index for key without building one.
func (r *Relation) peekIndex(key string) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.indexes[key]
}

// maxChainWalk bounds what carrying an index may cost a delete. Unlinking a
// row walks its singly linked chain from the head: a step for a key, ten
// or twenty for a foreign key, but the whole relation for an index over a
// constant column. An index on which a delete would walk further than this
// is dropped instead, and rebuilt by the next operator that asks for it.
const maxChainWalk = 64

// deleteRow applies the relation's swap-with-last deletion of row i to the
// index: row i leaves its chain, and the last row — about to be moved into
// position i — is re-pointed there. Called before the owner truncates. It
// reports false, leaving the index unusable, when a chain is too long to
// walk.
func (ix *Index) deleteRow(i int32) bool {
	last := int32(len(ix.next) - 1)
	if !ix.relink(i, ix.next[i]) || (i != last && !ix.relink(last, i)) {
		return false
	}
	if i != last {
		ix.next[i] = ix.next[last]
		ix.keyHash[i] = ix.keyHash[last]
	}
	ix.next = ix.next[:last]
	ix.keyHash = ix.keyHash[:last]
	if k := len(ix.pos); ix.keyVals != nil {
		copy(ix.keyVals[int(i)*k:], ix.keyVals[int(last)*k:])
		ix.keyVals = ix.keyVals[:int(last)*k]
	}
	return true
}

// relink makes whatever points at row i — its chain's slot, or its
// predecessor in the chain — point at row to instead; to = -1 ends the
// chain there, which frees the slot when i was its only row. It gives up,
// reporting false, when the predecessor is more than maxChainWalk rows
// down the chain.
func (ix *Index) relink(i, to int32) bool {
	h := ix.keyHash[i]
	mask := uint64(len(ix.slots) - 1)
	s := h & mask
	for ix.keyHash[ix.slots[s]-1] != h {
		s = (s + 1) & mask
	}
	switch p := ix.slots[s] - 1; {
	case p != i:
		for steps := 0; ix.next[p] != i; p = ix.next[p] {
			if steps++; steps > maxChainWalk {
				return false
			}
		}
		ix.next[p] = to
	case to >= 0:
		ix.slots[s] = to + 1
	default:
		// Backward-shift deletion keeps linear probing free of
		// tombstones: each later entry of the run moves into the hole
		// unless its home slot lies cyclically after the hole.
		for j := (s + 1) & mask; ix.slots[j] != 0; j = (j + 1) & mask {
			if home := ix.keyHash[ix.slots[j]-1] & mask; (j-home)&mask >= (j-s)&mask {
				ix.slots[s] = ix.slots[j]
				s = j
			}
		}
		ix.slots[s] = 0
		ix.keys--
	}
	return true
}

// noteDeleted accounts for Delete's swap-with-last of row i, which is
// about to be removed from rows: cached indexes and key-hash vectors
// follow the move instead of being dropped, so the access paths queries
// and refreshes built survive an update that deletes — all but an index
// whose chains are too long to walk. The columnar image is still dropped.
// Like all mutation paths, this requires exclusive access.
func (r *Relation) noteDeleted(i int32) {
	r.cols = nil
	for key, ix := range r.indexes {
		if !ix.deleteRow(i) {
			delete(r.indexes, key)
		}
	}
	last := len(r.rows) - 1
	for _, kv := range r.keyVecs {
		kv.hashes[i] = kv.hashes[last]
		kv.hashes = kv.hashes[:last]
	}
}

// noteInserted accounts for rows appended at positions [from, len(rows)):
// cached hash indexes are extended in place rather than dropped, so the
// indexes on a stored relation survive the insert-heavy refresh cycle.
// The columnar image is still dropped — batch operators rebuild it
// lazily. Like all mutation paths, this requires exclusive access.
func (r *Relation) noteInserted(from int) {
	r.cols = nil
	for _, ix := range r.indexes {
		ix.extend(from)
	}
	for _, kv := range r.keyVecs {
		for i := from; i < len(r.rows); i++ {
			kv.hashes = append(kv.hashes, hashCols(r.rows[i], kv.pos))
		}
	}
}

// OpStats accumulates physical-operator counters. All operators accept a
// nil *OpStats, which disables counting; the *Stats operator variants add
// into the same struct so a whole plan can share one accumulator.
type OpStats struct {
	Scanned     int64 // tuples read from operator inputs
	Probed      int64 // hash/index lookups issued
	Emitted     int64 // tuples produced (before set-semantics dedup)
	IndexHits   int64 // probes that found at least one matching row
	IndexBuilds int64 // hash indexes built and cached on an input (index-cache misses)
	Batches     int64 // column batches processed by vectorized operators
}

// Add accumulates o into s. Both receivers of nil and adding zero are
// no-ops, so callers can pass counters around unconditionally.
func (s *OpStats) Add(o OpStats) {
	if s == nil {
		return
	}
	s.Scanned += o.Scanned
	s.Probed += o.Probed
	s.Emitted += o.Emitted
	s.IndexHits += o.IndexHits
	s.IndexBuilds += o.IndexBuilds
	s.Batches += o.Batches
}

func (s *OpStats) scanned(n int) {
	if s != nil {
		s.Scanned += int64(n)
	}
}

func (s *OpStats) probe(hit bool) {
	if s == nil {
		return
	}
	s.Probed++
	if hit {
		s.IndexHits++
	}
}

// probes adds n probes of which hits found at least one candidate row.
func (s *OpStats) probes(n, hits int) {
	if s != nil {
		s.Probed += int64(n)
		s.IndexHits += int64(hits)
	}
}

func (s *OpStats) emitted(n int) {
	if s != nil {
		s.Emitted += int64(n)
	}
}

func (s *OpStats) built(b bool) {
	if s != nil && b {
		s.IndexBuilds++
	}
}

func (s *OpStats) batches(n int) {
	if s != nil {
		s.Batches += int64(n)
	}
}
