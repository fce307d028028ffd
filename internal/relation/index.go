package relation

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"dwcomplement/internal/lockrank"
)

// table is the one hash table of the package, over some columns of a
// relation's rows: each row's hash of them, an open-addressed table of
// chain heads that the first probe builds, and chain links that exist only
// once two rows share a key hash. The membership table is the one over
// every column: its key hashes are the row hashes and, barring a collision
// of full 64-bit hashes, it has no links.
type table struct {
	hashes  paged[uint64] // hashes.at(i): the hash of row i's columns
	slots   paged[int32]  // 0 empty, else head row of a hash chain, +1
	next    *paged[int32] // next.at(i): the row after i in its chain, +1; 0 ends it
	covered atomic.Int64  // the rows [0, covered) are in slots and next
	keys    int           // number of distinct key hashes among them
}

// Index is a relation's table over some of its attributes: the membership
// table, or one the operators cache on the relation keyed by the (sorted)
// attribute set — with key hashes only until something probes it. Every
// table follows every mutation in place: an insert appends its rows
// (extend), a delete applies the relation's swap-with-last to the chains
// (deleteRow) — or drops a cached table when that would walk a chain
// longer than maxChainWalk, so a handle must not be kept across a delete.
// Clone hands them to the new owner as shared pages.
type Index struct {
	owner  *Relation
	attrs  []string // indexed attributes: sorted, or the owner's for its membership table
	pos    []int    // column positions of attrs in the owning relation
	*table          // the owner's membership table, or the cached index's own
}

// newIndex returns a cached index over the columns pos of owner, allocated
// with an empty table and chain links of its own.
func newIndex(owner *Relation, attrs []string, pos []int) *Index {
	c := &struct {
		Index
		own   table
		links paged[int32]
	}{Index: Index{owner: owner, attrs: attrs, pos: pos}}
	c.table, c.own.next = &c.own, &c.links
	return &c.Index
}

// seek returns the slot of key hash h's chain and the chain's head row
// (the rest follow via after), or the empty slot that ends h's probe run
// and -1: the package's one probe loop. Linear probing: distinct hashes
// landing on one slot spill to the following slots. A table never built
// (an empty relation's membership table) holds nothing.
func (tb *table) seek(h uint64) (uint64, int32) {
	if tb.slots.len() == 0 {
		return 0, -1
	}
	mask := uint64(tb.slots.len() - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		v := tb.slots.at(int(s))
		if v == 0 || tb.hashes.at(int(v-1)) == h {
			return s, v - 1
		}
	}
}

// chained reports whether some chain holds two rows.
func (tb *table) chained() bool { return tb.next != nil && tb.next.len() > 0 }

// after returns the row that follows row ri in its hash chain, or -1.
func (tb *table) after(ri int32) int32 {
	if !tb.chained() {
		return -1
	}
	return tb.next.at(int(ri)) - 1
}

// Attrs returns the indexed attribute names in sorted order.
func (ix *Index) Attrs() []string { return slices.Sorted(slices.Values(ix.attrs)) }

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
// column, if one exists: a chain of two rows may be a hash collision.
func (ix *Index) dupPair() (int32, int32, bool) {
	if !ix.chained() || ix.keys == ix.next.len() { // every chain is a singleton
		return 0, 0, false
	}
	for s := range ix.slots.len() {
		for a := ix.slots.at(s) - 1; a >= 0; a = ix.after(a) {
			for b := ix.after(a); b >= 0; b = ix.after(b) {
				if ix.owner.rows.sameCols(int(a), int(b), ix.pos) {
					return a, b, true
				}
			}
		}
	}
	return 0, 0, false
}

// probe calls f(i, bi) for every row i of x and row bi of the owner that
// agree on the indexed attributes — equal hashes may be a collision, so
// the values are compared — whose hashes over x's rows kh holds (nil:
// hashed here). It counts x's rows as walked and probed into s, and those
// with a partner as hits.
func (ix *Index) probe(x *Relation, kh *paged[uint64], s *OpStats, f func(i int, bi int32)) {
	var buf [8]Value
	t, pos, hits := scratchTuple(&buf, len(x.attrs)), x.cols(ix.attrs), 0
	for pi, pg := range x.rows.pages {
		for k := range x.rows.rowsOn(pi) {
			var h uint64
			if kh != nil {
				h = kh.at(pi<<pageBits + k)
			} else {
				h = pg.hashCols(k, pos)
			}
			_, bi := ix.seek(h)
			if bi >= 0 {
				pg.readCols(k, t, pos)
			}
			hit := false
			for ; bi >= 0; bi = ix.after(bi) {
				if ix.owner.rows.matches(int(bi), ix.pos, t, pos) {
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

// Index returns the relation's hash index over the given attributes: its
// membership table for every attribute, else a cached one, built on first
// use. It returns ok=false if some attribute is not part of the relation.
// Concurrent readers may build indexes on a shared relation; the cache is
// internally locked.
func (r *Relation) Index(attrs ...string) (*Index, bool) {
	sorted := append([]string(nil), attrs...)
	for _, a := range sorted {
		if !r.HasAttr(a) {
			return nil, false
		}
	}
	// keep the canonical cache key independent of caller order
	sort.Strings(sorted)
	ix, _ := r.indexFor(sorted, indexKey(sorted))
	return ix, true
}

// IndexCount returns the number of cached indexes with built slots, for
// tests asserting that mutations carry them. The membership table is not
// one of them.
func (r *Relation) IndexCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ix := range r.indexes {
		if ix.slots.len() > 0 {
			n++
		}
	}
	return n
}

// indexFor returns r's table over the given sorted attributes (all of
// which r has) with its slots built, building them if absent. It reports
// whether a build happened, so operators can count cache misses.
func (r *Relation) indexFor(sortedAttrs []string, key string) (*Index, bool) {
	ix := r.tableFor(sortedAttrs, key)
	if ix.table == &r.set {
		ix.cover(&r.mu)
		return ix, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix.slots.len() > 0 {
		return ix, false
	}
	ix.coverRows()
	return ix, true
}

// tableFor returns r's table over the given sorted attributes (all of
// which r has): the membership table for every attribute, else the cached
// one, made on first use with key hashes only — all a probe side needs:
// re-hashing the key columns row by row was the probe loop's largest fixed
// cost, and joins re-probe the same relations on the same attributes.
func (r *Relation) tableFor(sortedAttrs []string, key string) *Index {
	if len(sortedAttrs) == len(r.attrs) {
		return &Index{owner: r, attrs: r.attrs, pos: allCols(len(r.attrs)), table: &r.set}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.indexes[key]; ix != nil {
		return ix
	}
	ix := newIndex(r, append([]string(nil), sortedAttrs...), r.cols(sortedAttrs))
	ix.hashes.reserve(r.rows.len())
	ix.extend()
	if r.indexes == nil {
		r.indexes = make(map[string]*Index)
	}
	r.indexes[key] = ix
	return ix
}

// peekIndex returns the cached index for key, if its slots are built.
func (r *Relation) peekIndex(key string) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.indexes[key]; ix != nil && ix.slots.len() > 0 {
		return ix
	}
	return nil
}

// shareTo makes c, the empty table over the same columns of a relation
// with the same rows, share tb's pages.
func (tb *table) shareTo(c *table) {
	tb.hashes.shareTo(&c.hashes)
	tb.slots.shareTo(&c.slots)
	if tb.chained() {
		if c.next == nil {
			c.next = new(paged[int32])
		}
		tb.next.shareTo(c.next)
	}
	c.covered.Store(tb.covered.Load())
	c.keys = tb.keys
}

// copied returns the bytes of pages the table's arrays copied or
// allocated (paged.freshBytes).
func (tb *table) copied() int64 {
	return tb.hashes.freshBytes() + tb.slots.freshBytes() + tb.next.freshBytes()
}

// extend hashes the owner rows the index does not hold yet and, once its
// slots are built, enters them there: rebuilding every index from scratch
// per update was once the dominant cost of restricted maintenance.
func (ix *Index) extend() {
	rows := &ix.owner.rows
	for i := ix.hashes.len(); i < rows.len(); i++ {
		ix.hashes.append(rows.pages[i>>pageBits].hashCols(i&pageMask, ix.pos))
	}
	if ix.slots.len() > 0 {
		ix.coverRows()
	}
}

// cover makes the slots hold every row: the first probe of an operator's
// output builds its membership table. Readers racing to cover serialize
// on mu, the owner's lock, and double-check; the covered store/load pair
// orders the slot writes before any reader's fast-path pass.
func (tb *table) cover(mu *lockrank.Mutex[lockrank.Relation]) {
	if tb.covered.Load() == int64(tb.hashes.len()) {
		return
	}
	mu.Lock()
	if tb.covered.Load() != int64(tb.hashes.len()) {
		tb.coverRows()
	}
	mu.Unlock()
}

// coverRows enters the rows from covered on in the slots, building them,
// or growing them to twice the rows, first when they would be more than
// 2/3 full. The caller has exclusive access or holds the owner's lock.
func (tb *table) coverRows() {
	n, from := tb.hashes.len(), int(tb.covered.Load())
	if size := tb.slots.len(); size == 0 || n*3 > size*2 {
		capacity := n
		if size > 0 {
			capacity = 2 * n
		}
		tb.slots.alloc(tableSizeFor(capacity))
		tb.keys, from = 0, 0
	}
	for i := from; i < n; i++ {
		tb.link(i, tb.chain(i, tb.hashes.at(i)))
	}
	tb.covered.Store(int64(n))
}

// chain makes row i, whose key hash is h, the head of h's chain in the
// slots and returns the row it displaced there, or -1.
func (tb *table) chain(i int, h uint64) int32 {
	s, j := tb.seek(h)
	if j < 0 {
		tb.keys++
	}
	tb.slots.set(int(s), int32(i)+1)
	return j
}

// link records row j as the one after row i in its chain, -1 for none.
// The links are materialized when a chain first gets a second row.
func (tb *table) link(i int, j int32) {
	if !tb.chained() {
		if j < 0 {
			return
		}
		if tb.next == nil {
			tb.next = new(paged[int32])
		}
		tb.next.alloc(i)
	}
	if i < tb.next.len() {
		tb.next.set(i, j+1)
	} else {
		tb.next.append(j + 1)
	}
}

// maxChainWalk bounds what carrying an index may cost a delete. Unlinking a
// row walks its singly linked chain from the head: a step for a key, ten
// or twenty for a foreign key, but the whole relation for an index over a
// constant column. A cached index on which a delete would walk further is
// dropped instead, and rebuilt by the next operator that asks for it.
const maxChainWalk = 64

// deleteRow applies the relation's swap-with-last deletion of row i to the
// table: row i leaves its chain, and the last row — about to be moved into
// position i — is re-pointed there. Called before the owner truncates. It
// reports false, leaving the table unusable, when a chain is longer than
// walk allows.
func (tb *table) deleteRow(i int32, walk int) bool {
	last := int32(tb.hashes.len() - 1)
	if tb.slots.len() > 0 {
		if !tb.relink(i, tb.after(i), walk) || (i != last && !tb.relink(last, i, walk)) {
			return false
		}
		if tb.chained() {
			if i != last {
				tb.next.set(int(i), tb.next.at(int(last)))
			}
			tb.next.truncate(int(last))
		}
		tb.covered.Store(int64(last))
	}
	if i != last {
		tb.hashes.set(int(i), tb.hashes.at(int(last)))
	}
	tb.hashes.truncate(int(last))
	return true
}

// relink makes whatever points at row i — its chain's slot, or its
// predecessor in the chain — point at row to instead; to = -1 ends the
// chain there, which frees the slot when i was its only row. It gives up,
// reporting false, when the predecessor is more than walk rows down the
// chain.
func (tb *table) relink(i, to int32, walk int) bool {
	s, p := tb.seek(tb.hashes.at(int(i)))
	switch {
	case p != i:
		for steps := 0; ; steps++ {
			n := tb.after(p)
			if n == i {
				break
			}
			if steps == walk {
				return false
			}
			p = n
		}
		tb.next.set(int(p), to+1)
	case to >= 0:
		tb.slots.set(int(s), to+1)
	default:
		tb.vacate(s)
		tb.keys--
	}
	return true
}

// vacate empties slot s. Backward-shift deletion keeps linear probing free
// of tombstones: each later entry of the run moves into the hole unless
// its home slot lies cyclically after the hole.
func (tb *table) vacate(s uint64) {
	mask := uint64(tb.slots.len() - 1)
	for j := (s + 1) & mask; ; j = (j + 1) & mask {
		v := tb.slots.at(int(j))
		if v == 0 {
			break
		}
		if home := tb.hashes.at(int(v-1)) & mask; (j-home)&mask >= (j-s)&mask {
			tb.slots.set(int(s), v)
			s = j
		}
	}
	tb.slots.set(int(s), 0)
}

// noteDeleted accounts for Delete's swap-with-last of row i, which is
// about to be removed from rows: every table follows the move — the
// membership table whatever its chains, a cached index unless they are
// too long to walk. The two row pages the swap writes part with their
// slots. Like all mutation paths, this requires exclusive access.
func (r *Relation) noteDeleted(i int32) {
	r.dropSlot(int(i) >> pageBits)
	r.dropSlotsFrom((r.rows.len() - 1) >> pageBits)
	r.set.deleteRow(i, math.MaxInt)
	for key, ix := range r.indexes {
		if !ix.deleteRow(i, maxChainWalk) {
			delete(r.indexes, key)
		}
	}
}

// noteInserted accounts for rows appended at positions [from, len(rows)),
// whose hashes the membership table holds: every table is extended in
// place, so the indexes on a stored relation survive the refresh cycle.
// The row pages from the one holding from on part with their slots. Like
// all mutation paths, this requires exclusive access.
func (r *Relation) noteInserted(from int) {
	r.dropSlotsFrom(from >> pageBits)
	if r.set.slots.len() > 0 {
		r.set.coverRows()
	}
	for _, ix := range r.indexes {
		ix.extend()
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
