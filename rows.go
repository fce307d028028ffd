package dwc

// This file is the batch-cursor surface of the facade: query answers come
// back as a Rows cursor over the engine's column pages instead of a bare
// relation, so downstream code can stream results column-major in
// BatchSize windows without per-tuple boxing or copying. Rows also carries
// the evaluation's instrumentation, replacing the (relation, stats) pairs
// the deprecated *Context wrappers returned.

import (
	"iter"

	"dwcomplement/internal/relation"
)

// Batch is a column-major window of up to BatchSize consecutive rows of a
// relation: one of its row pages, whose per-attribute typed vectors
// (int64, float64, bool, dictionary-coded strings) with null bitmaps are
// the relation's storage. Layout, null bitmap and string dictionary are
// per batch — ColKind, HasNulls and Dict may differ from one batch of a
// relation to the next, and dictionary codes compare only within one
// batch. Batches are read-only views of the page in place: a page a clone
// shares never changes, but one taken before a mutation of a relation no
// clone shares reads what the mutation wrote.
type Batch = relation.Batch

// BatchSize is the number of rows in a full Batch (the last batch of a
// relation may be shorter).
const BatchSize = relation.BatchSize

// Rows is the result cursor returned by Answer and EvalExpr: the answer
// relation plus the evaluation's instrumentation, with batch (column-
// major) iteration that reads the pages in place and row (tuple)
// iteration that builds tuples from them.
//
// A Rows is a view, not a snapshot: iterating reads the underlying
// relation's storage directly. The answer relation is freshly built by
// evaluation and owned by the caller, so this is safe; callers who keep
// the cursor across their own later mutations of Relation() must
// re-create it.
type Rows struct {
	rel   *Relation
	stats *EvalStats
}

// newRows wraps an evaluation result; stats may be nil.
func newRows(r *Relation, stats *EvalStats) *Rows {
	return &Rows{rel: r, stats: stats}
}

// Relation returns the materialized answer as a plain relation.
func (rs *Rows) Relation() *Relation { return rs.rel }

// Stats returns the evaluation's operator counters, wall time and
// executed plan tree (stats.Plan — the EXPLAIN ANALYZE view). Batches
// served through the cursor are added to Stats().Batches as they are
// yielded, alongside the pages the operators walked during evaluation.
func (rs *Rows) Stats() *EvalStats { return rs.stats }

// Len returns the number of rows in the answer.
func (rs *Rows) Len() int { return rs.rel.Len() }

// Attrs returns the answer's attribute names in schema order. The caller
// must not modify the returned slice.
func (rs *Rows) Attrs() []string { return rs.rel.Attrs() }

// Batches iterates the answer column-major in BatchSize windows, one per
// row page as it was when Batches was called. Each yielded batch is
// counted into Stats().Batches, so plans report how much of the result
// their consumer actually drained.
func (rs *Rows) Batches() iter.Seq[Batch] {
	return func(yield func(Batch) bool) {
		for b := range rs.rel.Batches() {
			if rs.stats != nil {
				rs.stats.Batches++
			}
			if !yield(b) {
				return
			}
		}
	}
}

// All iterates the answer row-major: each tuple is built from the column
// pages as the iteration reaches it, and the caller may keep it.
func (rs *Rows) All() iter.Seq[Tuple] { return rs.rel.All() }

// Sorted returns the answer's tuples in the deterministic total value
// order used for printing and golden tests, as fresh tuples the caller may
// keep.
func (rs *Rows) Sorted() []Tuple { return rs.rel.SortedTuples() }
