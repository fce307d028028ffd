package relation

import "iter"

// BatchSize is the number of rows a batch covers: large enough that the
// per-batch bookkeeping amortizes to nothing, small enough that a batch's
// working set (a few columns × 1024 values) stays cache-resident. It is a
// multiple of 64 so batch boundaries align with null-bitmap words.
const BatchSize = 1024

// A batch is one row page: the pages are what a clone shares and a
// mutation copies, and the unit in which the column vectors are laid out.
var _ = [1]struct{}{}[pageLen-BatchSize]

// Batch is a column-major window of up to BatchSize consecutive rows: one
// row page of the relation as it was when Batches was called. Batches are
// values (cheap to copy) and alias the page rather than copying data. The
// layout of a column, its null bitmap and its string dictionary are chosen
// per page: ColKind, HasNulls and Dict may answer differently for two
// batches of one relation, and dictionary codes compare only within one
// batch.
//
// A Batch pins the page it was cut from and the number of rows it had,
// not the relation. Batches lends the relation's pages as Clone does, so
// the next write to any of them copies the page first: a batch reads the
// rows, kinds and dictionary as they were, whatever the relation does
// later — inside the range loop or after it.
type Batch struct {
	pg    rowPage
	n     int
	attrs []string
	start int // first row (global index), multiple of BatchSize
}

// Len returns the number of rows in the batch.
func (b Batch) Len() int { return b.n }

// Start returns the global index of the batch's first row.
func (b Batch) Start() int { return b.start }

// Attrs returns the attribute names in column order (shared; read-only).
func (b Batch) Attrs() []string { return b.attrs }

// NumCols returns the number of columns.
func (b Batch) NumCols() int { return len(b.pg) }

// ColKind returns the physical layout of column c in this batch.
func (b Batch) ColKind(c int) ColKind { return b.pg[c].kind }

// IsNull reports whether batch-local row i of column c is NULL.
func (b Batch) IsNull(c, i int) bool { return b.pg[c].isNull(i) }

// HasNulls reports whether column c may hold a NULL in this batch — the
// cheap guard batch loops use to skip null handling entirely on dense
// columns. It is false wherever no row of the page was ever NULL.
func (b Batch) HasNulls(c int) bool { return b.pg[c].nulls != nil }

// Value materializes batch-local row i of column c. Generic and slow;
// batch loops use the typed vectors below.
func (b Batch) Value(c, i int) Value { return b.pg[c].value(i) }

// Bools returns column c's payload when it is a bool vector, else nil.
// Rows flagged NULL hold false.
func (b Batch) Bools(c int) []bool { return window(b.pg[c].bools, b.n) }

// Ints returns column c's payload when it is an int64 vector, else nil.
// Rows flagged NULL hold 0.
func (b Batch) Ints(c int) []int64 { return window(b.pg[c].ints, b.n) }

// Floats returns column c's payload when it is a float64 vector, else
// nil. Rows flagged NULL hold 0.
func (b Batch) Floats(c int) []float64 { return window(b.pg[c].floats, b.n) }

// Codes returns column c's dictionary codes when it is a
// dictionary-encoded string vector, else nil. Decode codes with this
// batch's Dict. Rows flagged NULL hold some code of that Dict, which is
// never empty.
func (b Batch) Codes(c int) []int32 { return window(b.pg[c].codes, b.n) }

// Dict returns the string dictionary of column c in this batch, or nil
// for non-string layouts.
func (b Batch) Dict(c int) *Dict { return b.pg[c].dict }

// AppendKey appends to dst the canonical encoding of batch-local row i that
// Tuple.key gives its tuple: two rows are Equal exactly when their keys
// are, so the key can stand for the row in a map.
func (b Batch) AppendKey(dst []byte, i int) []byte {
	for c := range b.pg {
		dst = b.pg[c].value(i).appendKey(dst)
	}
	return dst
}

// AppendColsKey appends the canonical encoding of columns cols of
// batch-local row i, in that order: AppendKey's, restricted to a
// projection of the row.
func (b Batch) AppendColsKey(dst []byte, i int, cols []int) []byte {
	for _, c := range cols {
		dst = b.pg[c].value(i).appendKey(dst)
	}
	return dst
}

// window returns the batch's rows of a payload, or nil where there is none.
func window[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return s[:n]
}

// numBatches returns the batch count covering n rows.
func numBatches(n int) int { return (n + BatchSize - 1) / BatchSize }

// Page returns row page pi as a batch in place. Unlike Batches it lends
// nothing and allocates nothing, so the batch is valid only while r is not
// written: it is for relations nobody writes any more, such as a committed
// update's.
func (r *Relation) Page(pi int) Batch {
	return Batch{pg: r.rows.pages[pi], n: r.rows.rowsOn(pi), attrs: r.attrs, start: pi << pageBits}
}

// Batches returns an iterator over the relation column-major, one batch
// per row page — the counterpart of All. Nothing is built: a batch is the
// page. The page table and the row count are taken when Batches is
// called, and its pages are lent, so writes to the relation — made while
// ranging or later — are seen by a fresh call, never by this iterator.
func (r *Relation) Batches() iter.Seq[Batch] {
	pages, n := r.rows.snapshot()
	return func(yield func(Batch) bool) {
		for pi, pg := range pages {
			if !yield(Batch{pg: pg, n: min(pageLen, n-pi<<pageBits), attrs: r.attrs, start: pi << pageBits}) {
				return
			}
		}
	}
}
