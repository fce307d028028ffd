package relation

import (
	"fmt"
	"slices"
)

// The operators in this file walk their inputs page by page (counted in
// OpStats.Batches), probe on precomputed 64-bit row hashes, and build
// their outputs by copying cells from input pages to output pages — a
// tuple is materialized only where a probe needs values to compare.
// Where the algebra guarantees the emitted rows are pairwise distinct
// (selection and semi-join emit subsets of a set; natural/extension join
// outputs are injective images of distinct row pairs; difference and
// intersection emit subsets), results are built append-only with reused
// hashes and a lazily built membership table (emitter, page.go) — no
// per-tuple dedup and no table maintenance during the emit loop.
// Only projection and union can collapse tuples and pay for
// deduplication.

// Row gives predicate callbacks named access to the current row during
// Select without exposing column positions.
type Row struct {
	rel *Relation
	pg  rowPage
	k   int
}

// Get returns the value of the named attribute in the current row. It
// panics on unknown attributes.
func (w Row) Get(attr string) Value { return w.pg[w.rel.mustPos(attr)].value(w.k) }

// Has reports whether the row's relation has the named attribute.
func (w Row) Has(attr string) bool { return w.rel.HasAttr(attr) }

// Select returns σ_pred(r): the tuples of r satisfying pred. It is
// SelectBatch with the predicate asked row by row.
func Select(r *Relation, pred func(Row) bool) *Relation {
	return SelectBatch(r, func(b Batch, sel []int32) []int32 {
		for i := range b.Len() {
			if pred(Row{rel: r, pg: b.pg, k: i}) {
				sel = append(sel, int32(i))
			}
		}
		return sel
	})
}

// Count returns the number of tuples of r satisfying pred.
func Count(r *Relation, pred func(Row) bool) int {
	n := 0
	for pi, pg := range r.rows.pages {
		for k := range r.rows.rowsOn(pi) {
			if pred(Row{rel: r, pg: pg, k: k}) {
				n++
			}
		}
	}
	return n
}

// EmptyOf returns an empty relation over r's attributes.
func EmptyOf(r *Relation) *Relation { return r.empty() }

// BatchPred is a vectorized predicate: it appends to sel the batch-local
// indexes of the rows of b that satisfy the predicate and returns the
// extended slice. Implementations must not retain b or sel.
type BatchPred func(b Batch, sel []int32) []int32

// SelectBatch returns σ_pred(r) for a vectorized predicate.
func SelectBatch(r *Relation, pred BatchPred) *Relation {
	return SelectBatchStats(r, pred, nil)
}

// SelectBatchStats is the selection, the one σ of the engine: the
// predicate runs once per page, producing a selection vector, and the
// selected rows' cells are copied to the output with their hashes.
func SelectBatchStats(r *Relation, pred BatchPred, s *OpStats) *Relation {
	e := r.emitter(r.empty())
	sel := make([]int32, 0, min(r.Len(), BatchSize))
	for b := range r.Batches() {
		sel = pred(b, sel[:0])
		for _, k := range sel {
			i := int32(b.start) + k
			e.emit(r.set.hashes.at(int(i)), i, 0)
		}
	}
	s.walked(r.Len())
	return e.done(s)
}

// Project returns π_attrs(r) with set semantics. Following the paper's
// notational convention ("π_Z(R) will denote the usual projection of R
// onto attribute set Z if Z ⊆ attr(R), or the empty relation over Z
// otherwise"), projecting onto attributes not all present in r yields the
// empty relation over attrs rather than an error.
func Project(r *Relation, attrs ...string) *Relation {
	return ProjectStats(r, nil, attrs...)
}

// ProjectStats is Project with operator counters (nil disables counting).
// Projection genuinely collapses tuples, so it is the one unary operator
// that pays for dedup — on column hashes, not string keys, and on the
// input's rows: a row is emitted when no earlier input row agrees with it
// on attrs, so the output is appended a page at a time like any other
// operator's and its membership table is built when it is first probed.
func ProjectStats(r *Relation, s *OpStats, attrs ...string) *Relation {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.Pos(a)
		if !ok {
			return New(attrs...) // Z ⊄ attr(R): empty relation over Z.
		}
		idx[i] = p
	}
	e := newEmitter(newPresized(slices.Clone(attrs), r.Len()), source{rows: &r.rows, cols: idx}, source{})
	// An open-addressed table of the rows emitted so far: hash, and 1 + the
	// input row (0 marks an empty slot); on the stack for a few rows.
	type first struct {
		h   uint64
		row int32
	}
	var few [8]first
	table := few[:]
	if n := tableSizeFor(r.Len()); n > len(few) {
		table = make([]first, n)
	}
	mask := uint64(len(table) - 1)
	for pi, pg := range r.rows.pages {
	rows:
		for k := range r.rows.rowsOn(pi) {
			h, row := pg.hashCols(k, idx), int32(pi<<pageBits+k)
			j := h & mask
			for ; table[j].row != 0; j = (j + 1) & mask {
				if table[j].h == h && r.rows.sameCols(int(table[j].row-1), int(row), idx) {
					continue rows
				}
			}
			table[j] = first{h, row + 1}
			e.emit(h, row, 0)
		}
	}
	s.walked(r.Len())
	return e.done(s)
}

// NaturalJoin returns l ⋈ r: tuples agreeing on all shared attributes,
// concatenated over the union of attributes. With no shared attributes it
// degenerates to the Cartesian product, as usual.
func NaturalJoin(l, r *Relation) *Relation {
	return NaturalJoinStats(l, r, nil)
}

// NaturalJoinStats is NaturalJoin with operator counters. It is a hash
// join over the shared attributes: it reuses a cached index on either
// input when one exists, otherwise it builds (and caches) one on the
// larger input and iterates the smaller in batches. Distinct (l,r) row
// pairs yield distinct outputs, so results are emitted append-only; the
// output hash is the probe row's stored hash plus the build row's
// right-only column hash — nothing is re-hashed, and rows that probe
// empty buckets allocate nothing.
func NaturalJoinStats(l, r *Relation, s *OpStats) *Relation {
	shared := SharedAttrs(l.attrs, r.attrs)
	rOnly := make([]string, 0, len(r.attrs))
	for _, a := range r.attrs {
		if !l.HasAttr(a) {
			rOnly = append(rOnly, a)
		}
	}
	outAttrs := append(append([]string(nil), l.attrs...), rOnly...)
	rOnlyPos := r.cols(rOnly)
	if len(shared) == 0 { // Cartesian product: no key to hash on.
		e := joinEmitter(newPresized(outAttrs, l.Len()*r.Len()), l, r, rOnlyPos)
		s.scanned(l.Len() + r.Len())
		rOnlyHash := make([]uint64, r.Len())
		for ri := range rOnlyHash {
			rOnlyHash[ri] = r.rows.pages[ri>>pageBits].hashCols(ri&pageMask, rOnlyPos)
		}
		for li := range l.Len() {
			lh := l.set.hashes.at(li)
			for ri := range r.Len() {
				e.emit(lh+rOnlyHash[ri], int32(li), int32(ri))
			}
		}
		return e.done(s)
	}
	e := joinEmitter(newPresized(outAttrs, min(l.Len(), r.Len())), l, r, rOnlyPos)
	if l.IsEmpty() || r.IsEmpty() {
		return e.out
	}
	key := indexKey(shared)
	if min(l.Len(), r.Len()) == 1 && max(l.Len(), r.Len()) <= tinyJoin && l.peekIndex(key) == nil && r.peekIndex(key) == nil {
		return tinyJoinStats(e, l, r, shared, s)
	}

	// Pick the build side: an already-cached index wins outright;
	// otherwise index the larger side so the scan runs over the smaller.
	// On a stored relation the index is cached and follows its mutations,
	// so queries and refreshes find it again; on a transient operator
	// result it is the hash join's build phase and dies with it.
	build, probe := r, l
	switch {
	case r.peekIndex(key) != nil:
	case l.peekIndex(key) != nil:
		build, probe = l, r
	case l.Len() > r.Len():
		build, probe = l, r
	}
	ix, builtNow := build.indexFor(shared, key)
	s.built(builtNow)

	// Output hash: the output tuple is the l row plus the r row's r-only
	// columns, and for a matching pair the shared columns hold Equal
	// values (hence equal canonical value hashes). Tuple hashes are sums,
	// so out = lHash + rHash − sharedHash, where sharedHash is exactly
	// the probe key hash already computed for the bucket lookup — the
	// probe path re-hashes nothing and copies cells only for emitted rows.
	probeKH := &probe.tableFor(shared, key).hashes
	ix.probe(probe, probeKH, s, func(pr int, bi int32) {
		h := probe.set.hashes.at(pr) + build.set.hashes.at(int(bi)) - probeKH.at(pr)
		if build == r {
			e.emit(h, int32(pr), bi)
		} else {
			e.emit(h, bi, int32(pr))
		}
	})
	return e.done(s)
}

// tinyJoin is the most rows a join's input may have for the join to
// compare it row by row with a one-row input — a delta tuple and the rows
// it matched — rather than index it: building the index would read as many.
const tinyJoin = 64

// tinyJoinStats joins l and r, neither of them indexed on the shared
// attributes, by comparing every pair of rows, into e; l is the probe side
// of the counters.
func tinyJoinStats(e *emitter, l, r *Relation, shared []string, s *OpStats) *Relation {
	lPos, rPos, hits := l.cols(shared), r.cols(shared), 0
	for li := range l.Len() {
		hit := false
		for ri := range r.Len() {
			if l.rows.sameAs(li, lPos, &r.rows, ri, rPos) {
				kh := l.rows.pages[li>>pageBits].hashCols(li&pageMask, lPos)
				e.emit(l.set.hashes.at(li)+r.set.hashes.at(ri)-kh, int32(li), int32(ri))
				hit = true
			}
		}
		if hit {
			hits++
		}
	}
	s.walked(l.Len())
	s.probes(l.Len(), hits)
	return e.done(s)
}

// SharedAttrs returns the attributes both lists hold, sorted.
func SharedAttrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		if slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// joinEmitter is the emitter of a join of l and r into out: l's columns,
// then r's at rOnlyPos.
func joinEmitter(out, l, r *Relation, rOnlyPos []int) *emitter {
	return newEmitter(out, source{rows: &l.rows, cols: allCols(len(l.attrs))}, source{rows: &r.rows, cols: rOnlyPos})
}

// emitter returns the emitter of an output out whose rows are rows of r,
// taken whole.
func (r *Relation) emitter(out *Relation) *emitter {
	return newEmitter(out, source{rows: &r.rows, cols: allCols(len(r.attrs))}, source{})
}

// empty returns an empty relation over r's attributes, which it shares:
// attribute lists are never written.
func (r *Relation) empty() *Relation { return &Relation{attrs: r.attrs} }

// ExtensionJoin returns l ⋈ r where the shared attributes contain a key of
// r, so each l-tuple has at most one join partner (Honeyman's extension
// joins, which Theorem 2.2 relies on when recomposing base relations from
// covers): NaturalJoin, once the key is checked. It returns an error if
// rKey is not part of the shared attributes or if r violates uniqueness on
// rKey. The unique index the check builds is cached on r, and the join
// probes it.
func ExtensionJoin(l, r *Relation, rKey AttrSet) (*Relation, error) {
	shared := l.AttrSet().Intersect(r.AttrSet())
	if !rKey.SubsetOf(shared) {
		return nil, fmt.Errorf("relation: extension join: key %v not contained in shared attributes %v", rKey, shared)
	}
	keyAttrs := rKey.Sorted()
	ix, _ := r.indexFor(keyAttrs, indexKey(keyAttrs))
	// A multi-row chain may be a mere hash collision between distinct
	// keys; uniqueness is violated only by rows agreeing on the actual
	// key columns.
	if a, b, dup := ix.dupPair(); dup {
		return nil, fmt.Errorf("relation: extension join: %v is not a key of the right input (tuples %v and %v agree on it)",
			rKey, r.rows.at(int(b)), r.rows.at(int(a)))
	}
	return NaturalJoin(l, r), nil
}

// SemiJoin returns the tuples of r whose projection onto probe's
// attributes occurs in probe (r ⋉ probe). The probe's attribute set must
// be contained in r's; otherwise the result is empty (no tuple can match
// a probe over foreign attributes).
func SemiJoin(r, probe *Relation) *Relation {
	return SemiJoinStats(r, probe, nil)
}

// SemiJoinStats is SemiJoin with operator counters. When the probe is the
// smaller side (the common case in restricted evaluation, where a small
// delta filters a large stored relation), it iterates the probe against a
// cached index on r instead of scanning all of r. All three strategies
// emit append-only: the output is a subset of one input's tuple set.
func SemiJoinStats(r, probe *Relation, s *OpStats) *Relation {
	rPos := make([]int, 0, probe.Arity())
	for _, a := range probe.attrs {
		p, ok := r.Pos(a)
		if !ok {
			return r.empty()
		}
		rPos = append(rPos, p)
	}
	if r.IsEmpty() || probe.IsEmpty() {
		return r.empty()
	}

	// Full-width probe: r's membership table already answers exactly, so
	// the semi-join costs O(probe) with no index at all — one aligned
	// hash lookup per probe row, reusing the probe's stored row hashes
	// (tuple hashes are column-order independent). This is the hot shape
	// of restricted maintenance (deltas probe whole tuples).
	if len(rPos) == len(r.attrs) {
		return filter(probe, r, true, r.empty(), s)
	}

	sortedProbe := probe.AttrSet().Sorted()
	key := indexKey(sortedProbe)
	if probe.Len() < r.Len() || r.peekIndex(key) != nil {
		// Probe-driven: each probe tuple's key value owns a disjoint set
		// of r rows (the key is probe's whole attribute set), so no r row
		// is emitted twice.
		ix, builtNow := r.indexFor(sortedProbe, key)
		s.built(builtNow)
		e := r.emitter(r.empty())
		// sortedProbe is the probe's whole attribute set, so the probe key
		// hashes are the probe's stored tuple hashes — nothing to re-hash.
		ix.probe(probe, &probe.set.hashes, s, func(_ int, bi int32) {
			e.emit(r.set.hashes.at(int(bi)), bi, 0)
		})
		return e.done(s)
	}

	// Scan-r: membership of each r row's projection in the probe's own
	// tuple set, again via order-independent hashes. The projection hashes
	// are served from r's cached table over them, so repeated scans of a
	// stored relation only pay the probes.
	e := r.emitter(r.empty())
	members(r, probe, rPos, &r.tableFor(sortedProbe, key).hashes, s, func(i int, in bool) bool {
		if in {
			e.emit(r.set.hashes.at(i), int32(i), 0)
		}
		return true
	})
	return e.done(s)
}

// ProjectionSubset reports whether π_attrs(r) ⊆ π_attrs(o), attrs being
// attributes of both, by probing o's cached index over attrs with every
// row of r; neither projection is materialized.
func ProjectionSubset(r, o *Relation, attrs ...string) bool {
	sorted := slices.Sorted(slices.Values(attrs))
	ix, _ := o.indexFor(sorted, indexKey(sorted))
	var st OpStats // a hit per row of r that o matches
	ix.probe(r, nil, &st, func(int, int32) {})
	return st.IndexHits == int64(r.Len())
}

// SameAttrs reports whether l and r have equal attribute sets. Names are
// distinct within a relation, so equal lengths and containment suffice.
func SameAttrs(l, r *Relation) bool {
	if len(l.attrs) != len(r.attrs) {
		return false
	}
	for _, a := range l.attrs {
		if !r.HasAttr(a) {
			return false
		}
	}
	return true
}

// sameAttrsOrErr validates union/difference compatibility.
func sameAttrsOrErr(op string, l, r *Relation) error {
	if !SameAttrs(l, r) {
		return fmt.Errorf("relation: %s requires equal attribute sets, got %v and %v: %w",
			op, l.AttrSet(), r.AttrSet(), ErrSchemaMismatch)
	}
	return nil
}

// Union returns l ∪ r. The inputs must have equal attribute sets.
func Union(l, r *Relation) (*Relation, error) {
	return UnionStats(l, r, nil)
}

// UnionStats is Union with operator counters (nil disables counting).
// A clone shares l's pages, or, for an l of less than a page, l's rows are
// copied; the merge reuses r's row hashes, and only the cells of genuinely
// new tuples are copied in.
func UnionStats(l, r *Relation, s *OpStats) (*Relation, error) {
	if err := sameAttrsOrErr("union", l, r); err != nil {
		return nil, err
	}
	var out *Relation
	if l.Len() >= pageLen { // sharing l's pages beats copying them
		out = l.Clone()
		out.InsertAll(r)
	} else {
		e := l.emitter(newPresized(l.attrs, l.Len()+r.Len()))
		for i := range l.Len() {
			e.emit(l.set.hashes.at(i), int32(i), 0)
		}
		out = filter(r, l, false, e.done(nil), nil)
	}
	s.scanned(l.Len() + r.Len())
	s.emitted(out.Len())
	return out, nil
}

// Diff returns l ∖ r. The inputs must have equal attribute sets.
func Diff(l, r *Relation) (*Relation, error) {
	return DiffStats(l, r, nil)
}

// DiffStats is Diff with operator counters (nil disables counting).
func DiffStats(l, r *Relation, s *OpStats) (*Relation, error) {
	return filterBy(l, r, false, "difference", s)
}

// Intersect returns l ∩ r. The inputs must have equal attribute sets.
func Intersect(l, r *Relation) (*Relation, error) {
	return filterBy(l, r, true, "intersection", nil)
}

// Keep returns r ∩ o when member is set and r ∖ o otherwise, as Intersect
// and Diff do, but r itself, not a copy, when that is all of r: a delta
// that is already what the caller needs costs its probes and nothing else.
// The caller must treat the result as shared with r.
func Keep(r, o *Relation, member bool) (*Relation, error) {
	if err := sameAttrsOrErr("keep", r, o); err != nil {
		return nil, err
	}
	var buf [8]int
	if members(r, o, alignment(r, o, &buf), &r.set.hashes, nil, func(_ int, held bool) bool { return held == member }) {
		return r, nil
	}
	return filter(r, o, member, r.empty(), nil), nil
}

// filterBy is l ∩ r when member is set and l ∖ r otherwise.
func filterBy(l, r *Relation, member bool, op string, s *OpStats) (*Relation, error) {
	if err := sameAttrsOrErr(op, l, r); err != nil {
		return nil, err
	}
	return filter(l, r, member, l.empty(), s), nil
}

// filter copies to out, which has x's attribute set and no rows, the rows
// of x whose membership in y (of the same attribute set) is member: one
// aligned probe of y's membership table per row.
func filter(x, y *Relation, member bool, out *Relation, s *OpStats) *Relation {
	var buf [8]int
	e := newEmitter(out, source{rows: &x.rows, cols: alignment(x, out, nil)}, source{})
	members(x, y, alignment(x, y, &buf), &x.set.hashes, s, func(i int, held bool) bool {
		if held == member {
			e.emit(x.set.hashes.at(i), int32(i), 0)
		}
		return true
	})
	return e.done(s)
}

// members asks y, for every row i of x, whether it holds the row's
// columns pos (y's column c is x's pos[c]), whose hashes kh holds, and
// calls f(i, held) until f returns false; it reports whether none did. It
// counts x's rows as walked and probed into s, and the rows y holds as
// hits.
func members(x, y *Relation, pos []int, kh *paged[uint64], s *OpStats, f func(i int, held bool) bool) bool {
	var buf [8]Value
	t, hits := scratchTuple(&buf, len(x.attrs)), 0
	for pi, pg := range x.rows.pages {
		for k := range x.rows.rowsOn(pi) {
			held := y.findAligned(kh.at(pi<<pageBits+k), pg.readCols(k, t, pos), pos) >= 0
			if held {
				hits++
			}
			if !f(pi<<pageBits+k, held) {
				return false
			}
		}
	}
	s.walked(x.Len())
	s.probes(x.Len(), hits)
	return true
}

// Rename returns ρ_mapping(r), renaming attributes per the old→new map.
// Attributes not mentioned keep their names. It returns an error if a
// source attribute is unknown or the renaming would create duplicates.
// Tuple hashes are independent of attribute names, so the result shares
// rows, hashes and membership structure with the input.
func Rename(r *Relation, mapping map[string]string) (*Relation, error) {
	newAttrs := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		if n, ok := mapping[a]; ok {
			newAttrs[i] = n
		} else {
			newAttrs[i] = a
		}
	}
	for old := range mapping {
		if !r.HasAttr(old) {
			return nil, fmt.Errorf("relation: rename of unknown attribute %q", old)
		}
	}
	if a, dup := duplicate(newAttrs); dup {
		return nil, fmt.Errorf("relation: rename produces duplicate attribute %q", a)
	}
	out := New(newAttrs...)
	r.shareStorage(out)
	return out, nil
}
