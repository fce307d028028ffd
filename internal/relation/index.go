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
// delete. Clone hands them to the new owner as shared pages.
type Index struct {
	owner *Relation
	attrs []string // indexed attributes, sorted
	pos   []int    // column positions of attrs in the owning relation

	// The bucket structure is an open-addressed table of chain heads plus
	// a per-row link array — three paged arrays, regardless of how many
	// distinct keys the index holds (a map of bucket slices costs one
	// allocation per distinct key). Chains are singly linked: a delete
	// walks its chain to the row, at most maxChainWalk steps.
	slots   paged[int32]  // 0 empty, else head row of a hash chain, +1
	next    paged[int32]  // next.at(i): next row with i's key hash, -1 ends the chain
	keyHash paged[uint64] // per-row hash of the indexed columns
	keys    int           // number of distinct key hashes

	// keyVals, when hasVals, holds row i's key values flat at
	// [i*k, (i+1)*k), k = len(pos). Hit verification then reads this
	// contiguous arena instead of one owner page per key column — the hit
	// path's dominant cost is that cache miss, not the comparison. The
	// arena costs an O(rows) allocation and copy, so it is only
	// materialized when the build-time probe-size hint says enough probes
	// will amortize it; small-delta probes (the restricted maintenance
	// shape) verify against the owner's pages directly.
	keyVals paged[Value]
	hasVals bool
}

// head returns the first owner row whose indexed columns hash to h, or -1.
// Further rows of the same hash chain follow via next. Linear probing:
// distinct hashes landing on one slot spill to the following slots, so a
// probe walks until it finds its hash's chain or an empty slot.
func (ix *Index) head(h uint64) int32 {
	mask := uint64(ix.slots.len() - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		v := ix.slots.at(int(s))
		if v == 0 {
			return -1
		}
		if ri := v - 1; ix.keyHash.at(int(ri)) == h {
			return ri
		}
	}
}

// after returns the row that follows row ri in its hash chain, or -1.
func (ix *Index) after(ri int32) int32 { return ix.next.at(int(ri)) }

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
	if ix.keys == ix.next.len() { // every chain is a singleton
		return 0, 0, false
	}
	for _, pg := range ix.slots.eachPage() {
		for _, v := range pg {
			for a := v - 1; a >= 0; a = ix.after(a) {
				for b := ix.after(a); b >= 0; b = ix.after(b) {
					if ix.rowsAgreeOnKey(a, b) {
						return a, b, true
					}
				}
			}
		}
	}
	return 0, 0, false
}

// rowsAgreeOnKey reports whether two owner rows hold equal values in every
// indexed column.
func (ix *Index) rowsAgreeOnKey(a, b int32) bool {
	rows := &ix.owner.rows
	for _, p := range ix.pos {
		if !rows.cell(int(a), p).Equal(rows.cell(int(b), p)) {
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
	if ix.hasVals {
		base := int(ri) * len(ix.pos)
		for i := range ix.pos {
			if !ix.keyVals.at(base + i).Equal(t[tPos[i]]) {
				return false
			}
		}
		return true
	}
	pg, k := ix.owner.rows.pages[ri>>pageBits], int(ri)&pageMask
	for i, p := range ix.pos {
		if !pg[p].equals(k, &t[tPos[i]]) {
			return false
		}
	}
	return true
}

// probe calls f(i, bi) for every row i of x and row bi of the owner that
// agree on the indexed attributes — x's columns pos, in the index's
// attribute order, whose hashes kh holds (nil: hashed here). It counts x's
// rows as walked and probed into s, and those with a partner as hits.
func (ix *Index) probe(x *Relation, pos []int, kh *paged[uint64], s *OpStats, f func(i int, bi int32)) {
	t, hits := make(Tuple, len(x.attrs)), 0
	for pi, pg := range x.rows.pages {
		for k := range x.rows.rowsOn(pi) {
			var h uint64
			if kh != nil {
				h = kh.at(pi<<pageBits + k)
			} else {
				h = pg.hashCols(k, pos)
			}
			bi, hit := ix.head(h), false
			if bi >= 0 {
				pg.readCols(k, t, pos)
			}
			for ; bi >= 0; bi = ix.after(bi) {
				if ix.keyEqual(bi, t, pos) { // else a hash collision across distinct keys
					hit = true
					f(pi<<pageBits+k, bi)
				}
			}
			if hit {
				hits++
			}
		}
	}
	s.walked(x.Len())
	s.probes(x.Len(), hits)
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
	n, pos := r.rows.len(), r.cols(sortedAttrs)
	ix := &Index{
		owner:   r,
		attrs:   append([]string(nil), sortedAttrs...),
		pos:     pos,
		hasVals: probeHint*2 >= n,
	}
	ix.slots.alloc(tableSizeFor(n))
	ix.next.reserve(n)
	ix.keyHash.reserve(n)
	if ix.hasVals {
		ix.keyVals.reserve(n * len(pos))
	}
	ix.extend(0)
	if r.indexes == nil {
		r.indexes = make(map[string]*Index)
	}
	r.indexes[key] = ix
	return ix, true
}

// cloneFor returns a copy of the index owned by owner, which must hold
// the same rows in the same order as the original's owner. The copy
// shares the original's pages.
func (ix *Index) cloneFor(owner *Relation) *Index {
	c := &Index{owner: owner, attrs: ix.attrs, pos: ix.pos, keys: ix.keys, hasVals: ix.hasVals}
	ix.slots.shareTo(&c.slots)
	ix.next.shareTo(&c.next)
	ix.keyHash.shareTo(&c.keyHash)
	ix.keyVals.shareTo(&c.keyVals)
	return c
}

// put chains owner row i (which must be the next unindexed row) under its
// key hash h.
func (ix *Index) put(i int, h uint64) {
	ix.keyHash.append(h)
	ix.next.append(ix.chain(i, h))
}

// chain makes row i, whose key hash is h, the head of h's chain in the
// slot table and returns the row it displaced there, or -1.
func (ix *Index) chain(i int, h uint64) int32 {
	mask := uint64(ix.slots.len() - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		v := ix.slots.at(int(s))
		if v == 0 {
			ix.slots.set(int(s), int32(i)+1)
			ix.keys++
			return -1
		}
		if j := v - 1; ix.keyHash.at(int(j)) == h {
			ix.slots.set(int(s), int32(i)+1)
			return j
		}
	}
}

// rebuildSlots re-derives the slot table for the rows already indexed,
// sized for capacity rows.
func (ix *Index) rebuildSlots(capacity int) {
	ix.slots.alloc(tableSizeFor(capacity))
	ix.keys = 0
	for i := range ix.keyHash.len() {
		ix.next.set(i, ix.chain(i, ix.keyHash.at(i)))
	}
}

// extend indexes the owner rows from position from onward — the initial
// build (from 0) and the incremental append paths share it. Insertions
// keep cached indexes alive: a refresh applies small deltas to large
// stored relations, and rebuilding every index from scratch per update
// was the dominant cost of restricted maintenance.
func (ix *Index) extend(from int) {
	r := ix.owner
	n := r.rows.len()
	if n*3 > ix.slots.len()*2 {
		ix.rebuildSlots(2 * n)
	}
	fullWidth := len(ix.pos) == len(r.attrs)
	for i := from; i < n; i++ {
		pg, k := r.rows.pages[i>>pageBits], i&pageMask
		if ix.hasVals {
			for _, p := range ix.pos {
				ix.keyVals.append(pg[p].value(k))
			}
		}
		// Full-width indexes hash the same columns as the membership
		// table; reuse the stored row hashes instead of re-hashing.
		if fullWidth {
			ix.put(i, r.hashes.at(i))
		} else {
			ix.put(i, pg.hashCols(k, ix.pos))
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
	hashes paged[uint64]
}

// keyHashesFor returns the per-row hashes of the given sorted attribute
// subset (which must all exist in r), building and caching the vector on
// first use. A full-width subset is answered from the stored tuple hashes
// (tuple hashes are column-order independent). The build costs exactly
// the hashing pass a caller would otherwise run inline, so cold callers
// lose nothing. The cache is internally locked, like the index cache. The
// vector is as long as r.rows, so it pages like r.rows.
func (r *Relation) keyHashesFor(sortedAttrs []string, key string) *paged[uint64] {
	if len(sortedAttrs) == len(r.attrs) {
		return &r.hashes
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if kv := r.keyVecs[key]; kv != nil {
		return &kv.hashes
	}
	kv := &keyVec{pos: r.cols(sortedAttrs)}
	kv.hashes.reserve(r.rows.len())
	kv.extend(r, 0)
	if r.keyVecs == nil {
		r.keyVecs = make(map[string]*keyVec)
	}
	r.keyVecs[key] = kv
	return &kv.hashes
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
	last := int32(ix.next.len() - 1)
	if !ix.relink(i, ix.after(i)) || (i != last && !ix.relink(last, i)) {
		return false
	}
	if i != last {
		ix.next.set(int(i), ix.after(last))
		ix.keyHash.set(int(i), ix.keyHash.at(int(last)))
	}
	ix.next.truncate(int(last))
	ix.keyHash.truncate(int(last))
	if ix.hasVals {
		k := len(ix.pos)
		for j := 0; j < k && i != last; j++ {
			ix.keyVals.set(int(i)*k+j, ix.keyVals.at(int(last)*k+j))
		}
		ix.keyVals.truncate(int(last) * k)
	}
	return true
}

// relink makes whatever points at row i — its chain's slot, or its
// predecessor in the chain — point at row to instead; to = -1 ends the
// chain there, which frees the slot when i was its only row. It gives up,
// reporting false, when the predecessor is more than maxChainWalk rows
// down the chain.
func (ix *Index) relink(i, to int32) bool {
	h := ix.keyHash.at(int(i))
	mask := uint64(ix.slots.len() - 1)
	s := h & mask
	p := ix.slots.at(int(s)) - 1
	for ix.keyHash.at(int(p)) != h {
		s = (s + 1) & mask
		p = ix.slots.at(int(s)) - 1
	}
	switch {
	case p != i:
		for steps := 0; ; steps++ {
			n := ix.after(p)
			if n == i {
				break
			}
			if steps == maxChainWalk {
				return false
			}
			p = n
		}
		ix.next.set(int(p), to)
	case to >= 0:
		ix.slots.set(int(s), to+1)
	default:
		vacate(&ix.slots, &ix.keyHash, s)
		ix.keys--
	}
	return true
}

// noteDeleted accounts for Delete's swap-with-last of row i, which is
// about to be removed from rows: cached indexes and key-hash vectors
// follow the move instead of being dropped, so the access paths queries
// and refreshes built survive an update that deletes — all but an index
// whose chains are too long to walk. The two row pages the swap writes
// part with their slots. Like all mutation paths, this requires exclusive
// access.
func (r *Relation) noteDeleted(i int32) {
	last := r.rows.len() - 1
	r.dropSlot(int(i) >> pageBits)
	r.dropSlotsFrom(last >> pageBits)
	for key, ix := range r.indexes {
		if !ix.deleteRow(i) {
			delete(r.indexes, key)
		}
	}
	for _, kv := range r.keyVecs {
		if int(i) != last {
			kv.hashes.set(int(i), kv.hashes.at(last))
		}
		kv.hashes.truncate(last)
	}
}

// noteInserted accounts for rows appended at positions [from, len(rows)):
// cached hash indexes are extended in place rather than dropped, so the
// indexes on a stored relation survive the insert-heavy refresh cycle.
// The row pages from the one holding from on part with their slots. Like
// all mutation paths, this requires exclusive access.
func (r *Relation) noteInserted(from int) {
	r.dropSlotsFrom(from >> pageBits)
	for _, ix := range r.indexes {
		ix.extend(from)
	}
	for _, kv := range r.keyVecs {
		kv.extend(r, from)
	}
}

// extend hashes r's rows from position from onward.
func (kv *keyVec) extend(r *Relation, from int) {
	for i := from; i < r.rows.len(); i++ {
		kv.hashes.append(r.rows.pages[i>>pageBits].hashCols(i&pageMask, kv.pos))
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
	Batches     int64 // row pages the operators walked
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

// walked counts n rows read, page by page.
func (s *OpStats) walked(n int) {
	if s != nil {
		s.Scanned += int64(n)
		s.Batches += int64(numBatches(n))
	}
}
