package relation

import (
	"fmt"
	"sort"
)

// The operators in this file are batch-oriented: inputs are walked in
// BatchSize chunks (counted in OpStats.Batches), membership and join
// probes run on precomputed 64-bit row hashes instead of string key
// encodings, and outputs are pre-sized. Where the algebra guarantees the
// emitted tuples are pairwise distinct (selection and semi-join emit
// subsets of a set; natural/extension join outputs are injective images
// of distinct row pairs; difference and intersection emit subsets),
// results are built append-only with reused hashes and a lazily built
// membership table (appendRowNoTable) — no per-tuple dedup, no table
// maintenance during the emit loop, and on the probe path no allocation
// at all for non-matching rows. Only projection and union can collapse
// tuples and pay for deduplication (and hence probe their own output
// while building it, which keeps their tables eager).

// Row gives predicate callbacks named access to the current tuple during
// Select without exposing column positions.
type Row struct {
	rel *Relation
	t   Tuple
}

// Get returns the value of the named attribute in the current row.
func (w Row) Get(attr string) Value { return w.rel.Get(w.t, attr) }

// Has reports whether the row's relation has the named attribute.
func (w Row) Has(attr string) bool { return w.rel.HasAttr(attr) }

// Select returns σ_pred(r): the tuples of r satisfying pred.
func Select(r *Relation, pred func(Row) bool) *Relation {
	return SelectStats(r, pred, nil)
}

// SelectStats is Select with operator counters (nil disables counting).
// The output shares the input's tuples and row hashes: a selection is a
// subset of a set, so no dedup and no copies.
func SelectStats(r *Relation, pred func(Row) bool, s *OpStats) *Relation {
	out := New(r.attrs...)
	for pi := range r.rows.numPages() {
		hashes := r.hashes.page(pi)
		for k, t := range r.rows.page(pi) {
			if pred(Row{rel: r, t: t}) {
				out.appendRowNoTable(t, hashes[k])
			}
		}
	}
	s.scanned(r.Len())
	s.batches(numBatches(r.Len()))
	s.emitted(out.Len())
	return out
}

// BatchPred is a vectorized predicate: it appends to sel the batch-local
// indexes of the rows of b that satisfy the predicate and returns the
// extended slice. Implementations must not retain b or sel.
type BatchPred func(b Batch, sel []int32) []int32

// SelectBatch returns σ_pred(r) for a vectorized predicate.
func SelectBatch(r *Relation, pred BatchPred) *Relation {
	return SelectBatchStats(r, pred, nil)
}

// SelectBatchStats is the vectorized selection: the predicate runs once
// per batch, producing a selection vector; selected rows are emitted
// append-only with shared tuples and reused hashes. Page images the scan
// had to build are counted in s.ImagePages.
func SelectBatchStats(r *Relation, pred BatchPred, s *OpStats) *Relation {
	out := New(r.attrs...)
	if r.IsEmpty() {
		return out
	}
	sel := make([]int32, 0, BatchSize)
	nb := 0
	for b := range r.batches(s) {
		sel = pred(b, sel[:0])
		for _, li := range sel {
			i := b.Start() + int(li)
			out.appendRowNoTable(r.rows.at(i), r.hashes.at(i))
		}
		nb++
	}
	s.scanned(r.Len())
	s.batches(nb)
	s.emitted(out.Len())
	return out
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
// that pays for dedup — on column hashes, not string keys.
func ProjectStats(r *Relation, s *OpStats, attrs ...string) *Relation {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.pos[a]
		if !ok {
			return New(attrs...) // Z ⊄ attr(R): empty relation over Z.
		}
		idx[i] = p
	}
	out := newPresized(attrs, r.Len())
	out.rebuildTable(r.Len()) // the output is probed while it is built
	for t := range r.All() {
		h := hashCols(t, idx)
		if out.findAligned(h, t, idx) >= 0 {
			continue
		}
		pt := make(Tuple, len(idx))
		for i, p := range idx {
			pt[i] = t[p]
		}
		out.appendRow(pt, h)
	}
	s.scanned(r.Len())
	s.batches(numBatches(r.Len()))
	s.emitted(out.Len())
	return out
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
	shared := l.AttrSet().Intersect(r.AttrSet()).Sorted()
	rOnly := make([]string, 0, len(r.attrs))
	for _, a := range r.attrs {
		if !l.HasAttr(a) {
			rOnly = append(rOnly, a)
		}
	}
	outAttrs := append(append([]string(nil), l.attrs...), rOnly...)
	rOnlyPos := make([]int, len(rOnly))
	for i, a := range rOnly {
		rOnlyPos[i] = r.pos[a]
	}
	// Output tuples are carved out of shared arena chunks, one allocation
	// per BatchSize rows instead of one per row — the per-row make() was
	// the join's largest GC cost. Tuples are immutable by package
	// contract, so aliasing a common backing array is safe. Chunks
	// start at the smaller input's size and double up to BatchSize rows:
	// zeroing a full chunk was most of the cost of a join that emits a
	// dozen rows.
	width := len(outAttrs)
	var arena []Value
	used := 0
	chunk := max(1, min(l.Len(), r.Len(), BatchSize))
	emit := func(out *Relation, lt, rt Tuple, h uint64) {
		if used+width > len(arena) {
			arena = make([]Value, chunk*width)
			used, chunk = 0, min(2*chunk, BatchSize)
		}
		jt := Tuple(arena[used : used : used+width])
		used += width
		jt = append(jt, lt...)
		for _, p := range rOnlyPos {
			jt = append(jt, rt[p])
		}
		out.appendRowNoTable(jt, h)
	}

	if len(shared) == 0 { // Cartesian product: no key to hash on.
		out := newPresized(outAttrs, l.Len()*r.Len())
		s.scanned(l.Len() + r.Len())
		rOnlyHash := make([]uint64, r.Len())
		for ri, rt := range r.rows.all() {
			rOnlyHash[ri] = hashCols(rt, rOnlyPos)
		}
		for li, lt := range l.rows.all() {
			lh := l.hashes.at(li)
			for ri, rt := range r.rows.all() {
				emit(out, lt, rt, lh+rOnlyHash[ri])
			}
		}
		s.emitted(out.Len())
		return out
	}
	out := newPresized(outAttrs, min(l.Len(), r.Len()))
	if l.IsEmpty() || r.IsEmpty() {
		return out
	}

	// Pick the build side: an already-cached index wins outright;
	// otherwise index the larger side so the scan runs over the smaller.
	// On a stored relation the index is cached and follows its mutations,
	// so queries and refreshes find it again; on a transient operator
	// result it is the hash join's build phase and dies with it.
	key := indexKey(shared)
	build, probe := r, l
	switch {
	case r.peekIndex(key) != nil:
	case l.peekIndex(key) != nil:
		build, probe = l, r
	case l.Len() > r.Len():
		build, probe = l, r
	}
	ix, builtNow := build.indexFor(shared, key, probe.Len())
	s.built(builtNow)

	probePos := make([]int, len(shared))
	for i, a := range shared {
		probePos[i] = probe.pos[a]
	}
	probeKH := probe.keyHashesFor(shared, key)
	s.scanned(probe.Len())
	s.batches(numBatches(probe.Len()))
	probed, hits := 0, 0
	buildIsR := build == r
	// Output hash: the output tuple is the l row plus the r row's r-only
	// columns, and for a matching pair the shared columns hold Equal
	// values (hence equal canonical value hashes). Tuple hashes are sums,
	// so out = lHash + rHash − sharedHash, where sharedHash is exactly
	// the probe key hash already computed for the bucket lookup — the
	// probe path re-hashes nothing and allocates only emitted tuples.
	for pg := range probe.rows.numPages() {
		khs, hashes := probeKH.page(pg), probe.hashes.page(pg)
		for k, pt := range probe.rows.page(pg) {
			kh := khs[k]
			probed++
			hit := false
			for bi := ix.head(kh); bi >= 0; bi = ix.after(bi) {
				if !ix.keyEqual(bi, pt, probePos) {
					continue // hash collision across distinct keys
				}
				hit = true
				bt := build.rows.at(int(bi))
				h := hashes[k] + build.hashes.at(int(bi)) - kh
				if buildIsR {
					emit(out, pt, bt, h)
				} else {
					emit(out, bt, pt, h)
				}
			}
			if hit {
				hits++
			}
		}
	}
	s.probes(probed, hits)
	s.emitted(out.Len())
	return out
}

// ExtensionJoin returns l ⋈ r where the shared attributes contain a key of
// r, so each l-tuple has at most one join partner (Honeyman's extension
// joins, which Theorem 2.2 relies on when recomposing base relations from
// covers). Functionally it equals NaturalJoin; operationally it probes a
// unique index and is what the warehouse uses on cover joins. It returns
// an error if rKey is not part of the shared attributes or if r violates
// uniqueness on rKey.
func ExtensionJoin(l, r *Relation, rKey AttrSet) (*Relation, error) {
	return ExtensionJoinStats(l, r, rKey, nil)
}

// ExtensionJoinStats is ExtensionJoin with operator counters. The unique
// index on r's key is cached on r, so repeated cover joins against the
// same stored relation skip the build.
func ExtensionJoinStats(l, r *Relation, rKey AttrSet, s *OpStats) (*Relation, error) {
	shared := l.AttrSet().Intersect(r.AttrSet())
	if !rKey.SubsetOf(shared) {
		return nil, fmt.Errorf("relation: extension join: key %v not contained in shared attributes %v", rKey, shared)
	}
	keyAttrs := rKey.Sorted()
	ix, builtNow := r.indexFor(keyAttrs, indexKey(keyAttrs), l.Len())
	s.built(builtNow)
	// A multi-row chain may be a mere hash collision between distinct
	// keys; uniqueness is violated only by rows agreeing on the actual
	// key columns.
	if a, b, dup := ix.dupPair(); dup {
		return nil, fmt.Errorf("relation: extension join: %v is not a key of the right input (tuples %v and %v agree on it)",
			rKey, r.rows.at(int(b)), r.rows.at(int(a)))
	}

	lKeyPos := make([]int, len(keyAttrs))
	for i, a := range keyAttrs {
		lKeyPos[i] = l.pos[a]
	}
	sharedNonKey := shared.Minus(rKey).Sorted()
	lNK := make([]int, len(sharedNonKey))
	rNK := make([]int, len(sharedNonKey))
	for i, a := range sharedNonKey {
		lNK[i] = l.pos[a]
		rNK[i] = r.pos[a]
	}
	rOnly := make([]string, 0, len(r.attrs))
	for _, a := range r.attrs {
		if !l.HasAttr(a) {
			rOnly = append(rOnly, a)
		}
	}
	outAttrs := append(append([]string(nil), l.attrs...), rOnly...)
	out := newPresized(outAttrs, l.Len())
	rOnlyPos := make([]int, len(rOnly))
	for i, a := range rOnly {
		rOnlyPos[i] = r.pos[a]
	}
	s.scanned(l.Len())
	s.batches(numBatches(l.Len()))
	probed, hits := 0, 0
	for li, lt := range l.rows.all() {
		probed++
		var rt Tuple
		for bi := ix.head(hashCols(lt, lKeyPos)); bi >= 0; bi = ix.after(bi) {
			if ix.keyEqual(bi, lt, lKeyPos) {
				rt = r.rows.at(int(bi))
				break // the key columns are unique: at most one true match
			}
		}
		if rt == nil {
			continue
		}
		hits++
		agree := true
		for i := range sharedNonKey {
			if !lt[lNK[i]].Equal(rt[rNK[i]]) {
				agree = false
				break
			}
		}
		if !agree {
			continue
		}
		jt := make(Tuple, 0, len(outAttrs))
		jt = append(jt, lt...)
		for _, p := range rOnlyPos {
			jt = append(jt, rt[p])
		}
		out.appendRowNoTable(jt, l.hashes.at(li)+hashCols(rt, rOnlyPos))
	}
	s.probes(probed, hits)
	s.emitted(out.Len())
	return out, nil
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
		p, ok := r.pos[a]
		if !ok {
			return New(r.attrs...)
		}
		rPos = append(rPos, p)
	}
	if r.IsEmpty() || probe.IsEmpty() {
		return New(r.attrs...)
	}

	// Full-width probe: r's membership table already answers exactly, so
	// the semi-join costs O(probe) with no index at all — one aligned
	// hash lookup per probe row, reusing the probe's stored row hashes
	// (tuple hashes are column-order independent). This is the hot shape
	// of restricted maintenance (deltas probe whole tuples).
	if len(rPos) == len(r.attrs) {
		out := newPresized(r.attrs, probe.Len())
		perm := alignment(probe, r)
		s.scanned(probe.Len())
		s.batches(numBatches(probe.Len()))
		probed, hits := 0, 0
		for pg := range probe.rows.numPages() {
			hashes := probe.hashes.page(pg)
			for k, pt := range probe.rows.page(pg) {
				probed++
				if r.findAligned(hashes[k], pt, perm) < 0 {
					continue
				}
				hits++
				out.appendRowNoTable(permute(pt, perm), hashes[k])
			}
		}
		s.probes(probed, hits)
		s.emitted(out.Len())
		return out
	}

	sortedProbe := probe.AttrSet().Sorted()
	key := indexKey(sortedProbe)
	if probe.Len() < r.Len() || r.peekIndex(key) != nil {
		// Probe-driven: each probe tuple's key value owns a disjoint set
		// of r rows (the key is probe's whole attribute set), so no r row
		// is emitted twice.
		ix, builtNow := r.indexFor(sortedProbe, key, probe.Len())
		s.built(builtNow)
		probePos := make([]int, len(sortedProbe))
		for i, a := range sortedProbe {
			probePos[i] = probe.pos[a]
		}
		// sortedProbe is the probe's whole attribute set, so the probe key
		// hashes are the probe's stored tuple hashes — nothing to re-hash.
		probeKH := probe.keyHashesFor(sortedProbe, key)
		out := newPresized(r.attrs, min(r.Len(), probe.Len()))
		s.scanned(probe.Len())
		s.batches(numBatches(probe.Len()))
		probed, hits := 0, 0
		for pg := range probe.rows.numPages() {
			khs := probeKH.page(pg)
			for k, pt := range probe.rows.page(pg) {
				probed++
				hit := false
				for bi := ix.head(khs[k]); bi >= 0; bi = ix.after(bi) {
					if !ix.keyEqual(bi, pt, probePos) {
						continue
					}
					hit = true
					out.appendRowNoTable(r.rows.at(int(bi)), r.hashes.at(int(bi)))
				}
				if hit {
					hits++
				}
			}
		}
		s.probes(probed, hits)
		s.emitted(out.Len())
		return out
	}

	// Scan-r: membership of each r row's projection in the probe's own
	// tuple set, again via order-independent hashes. The projection hashes
	// are served from r's cached key-hash vector, so repeated scans of a
	// stored relation only pay the table probes.
	rKH := r.keyHashesFor(sortedProbe, key)
	out := newPresized(r.attrs, r.Len())
	s.scanned(r.Len())
	s.batches(numBatches(r.Len()))
	probed, hits := 0, 0
	for pg := range r.rows.numPages() {
		khs, hashes := rKH.page(pg), r.hashes.page(pg)
		for k, t := range r.rows.page(pg) {
			probed++
			if probe.findAligned(khs[k], t, rPos) < 0 {
				continue
			}
			hits++
			out.appendRowNoTable(t, hashes[k])
		}
	}
	s.probes(probed, hits)
	s.emitted(out.Len())
	return out
}

// ProjectionSubset reports whether π_attrs(r) ⊆ π_attrs(o), attrs being
// attributes of both, by probing o's cached index over attrs with every
// row of r; neither projection is materialized.
func ProjectionSubset(r, o *Relation, attrs ...string) bool {
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	ix, _ := o.indexFor(sorted, indexKey(sorted), r.Len())
	rPos := make([]int, len(sorted))
	for i, a := range sorted {
		rPos[i] = r.pos[a]
	}
	for t := range r.All() {
		bi := ix.head(hashCols(t, rPos))
		for bi >= 0 && !ix.keyEqual(bi, t, rPos) {
			bi = ix.after(bi)
		}
		if bi < 0 {
			return false
		}
	}
	return true
}

// sameAttrsOrErr validates union/difference compatibility.
func sameAttrsOrErr(op string, l, r *Relation) error {
	if !l.AttrSet().Equal(r.AttrSet()) {
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
// The clone is shallow (tuples are shared) and the merge reuses r's row
// hashes; only genuinely new tuples are permuted in.
func UnionStats(l, r *Relation, s *OpStats) (*Relation, error) {
	if err := sameAttrsOrErr("union", l, r); err != nil {
		return nil, err
	}
	out := l.Clone()
	out.InsertAll(r)
	s.scanned(l.Len() + r.Len())
	s.emitted(out.Len())
	return out, nil
}

// Diff returns l ∖ r. The inputs must have equal attribute sets.
func Diff(l, r *Relation) (*Relation, error) {
	return DiffStats(l, r, nil)
}

// DiffStats is Diff with operator counters (nil disables counting): one
// aligned hash probe of r's membership table per l row, emitting the
// misses append-only with shared tuples.
func DiffStats(l, r *Relation, s *OpStats) (*Relation, error) {
	if err := sameAttrsOrErr("difference", l, r); err != nil {
		return nil, err
	}
	out := newPresized(l.attrs, l.Len())
	perm := alignment(l, r)
	s.scanned(l.Len())
	s.batches(numBatches(l.Len()))
	probed, hits := 0, 0
	for pg := range l.rows.numPages() {
		hashes := l.hashes.page(pg)
		for k, t := range l.rows.page(pg) {
			probed++
			if r.findAligned(hashes[k], t, perm) >= 0 {
				hits++
				continue
			}
			out.appendRowNoTable(t, hashes[k])
		}
	}
	s.probes(probed, hits)
	s.emitted(out.Len())
	return out, nil
}

// Intersect returns l ∩ r. The inputs must have equal attribute sets.
func Intersect(l, r *Relation) (*Relation, error) {
	return IntersectStats(l, r, nil)
}

// IntersectStats is Intersect with operator counters (nil disables
// counting); the mirror image of DiffStats.
func IntersectStats(l, r *Relation, s *OpStats) (*Relation, error) {
	if err := sameAttrsOrErr("intersection", l, r); err != nil {
		return nil, err
	}
	out := newPresized(l.attrs, min(l.Len(), r.Len()))
	perm := alignment(l, r)
	s.scanned(l.Len())
	s.batches(numBatches(l.Len()))
	probed, hits := 0, 0
	for pg := range l.rows.numPages() {
		hashes := l.hashes.page(pg)
		for k, t := range l.rows.page(pg) {
			probed++
			if r.findAligned(hashes[k], t, perm) < 0 {
				continue
			}
			hits++
			out.appendRowNoTable(t, hashes[k])
		}
	}
	s.probes(probed, hits)
	s.emitted(out.Len())
	return out, nil
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
	seen := make(map[string]bool, len(newAttrs))
	for _, a := range newAttrs {
		if seen[a] {
			return nil, fmt.Errorf("relation: rename produces duplicate attribute %q", a)
		}
		seen[a] = true
	}
	out := New(newAttrs...)
	r.shareStorage(out)
	return out, nil
}
