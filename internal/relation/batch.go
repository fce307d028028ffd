package relation

import "iter"

// BatchSize is the number of rows a batch covers: large enough that the
// per-batch bookkeeping amortizes to nothing, small enough that a batch's
// working set (a few columns × 1024 values) stays cache-resident. It is a
// multiple of 64 so batch boundaries align with null-bitmap words.
const BatchSize = 1024

// A batch is one page image: the row pages are what a clone shares and a
// mutation copies, so they are also the unit in which the columnar image
// is built, shared and dropped.
var _ = [1]struct{}{}[pageLen-BatchSize]

// Batch is a column-major window of up to BatchSize consecutive rows: the
// columnar image of one row page. Batches are values (cheap to copy) and
// alias the image rather than copying data. The layout of a column, its
// null bitmap and its string dictionary are chosen per batch: ColKind,
// HasNulls and Dict may answer differently for two batches of one
// relation, and dictionary codes compare only within one batch.
//
// A Batch pins the page image it was cut from, not the relation: after a
// mutation of the relation it still reads the page as it was. Ranging
// Batches while mutating the relation is a bug all the same — the
// iteration would pair old pages with new ones.
type Batch struct {
	img   *pageImage
	attrs []string
	start int // first row (global index), multiple of BatchSize
}

// Len returns the number of rows in the batch.
func (b Batch) Len() int { return b.img.n }

// Start returns the global index of the batch's first row.
func (b Batch) Start() int { return b.start }

// Attrs returns the attribute names in column order (shared; read-only).
func (b Batch) Attrs() []string { return b.attrs }

// NumCols returns the number of columns.
func (b Batch) NumCols() int { return len(b.img.cols) }

// ColKind returns the physical layout of column c in this batch.
func (b Batch) ColKind(c int) ColKind { return b.img.cols[c].kind }

// IsNull reports whether batch-local row i of column c is NULL.
func (b Batch) IsNull(c, i int) bool { return b.img.cols[c].isNull(i) }

// HasNulls reports whether column c has any NULL in this batch — the cheap
// guard batch loops use to skip null handling entirely on dense columns.
func (b Batch) HasNulls(c int) bool { return b.img.cols[c].nulls != nil }

// Value materializes batch-local row i of column c. Generic and slow;
// batch loops use the typed vectors below.
func (b Batch) Value(c, i int) Value { return b.img.cols[c].value(i) }

// Bools returns column c's payload when it is a bool vector, else nil.
// Rows flagged NULL hold false.
func (b Batch) Bools(c int) []bool { return b.img.cols[c].bools }

// Ints returns column c's payload when it is an int64 vector, else nil.
// Rows flagged NULL hold 0.
func (b Batch) Ints(c int) []int64 { return b.img.cols[c].ints }

// Floats returns column c's payload when it is a float64 vector, else
// nil. Rows flagged NULL hold 0.
func (b Batch) Floats(c int) []float64 { return b.img.cols[c].floats }

// Codes returns column c's dictionary codes when it is a
// dictionary-encoded string vector, else nil. Decode codes with this
// batch's Dict. Rows flagged NULL hold code 0.
func (b Batch) Codes(c int) []int32 { return b.img.cols[c].codes }

// Dict returns the string dictionary of column c in this batch, or nil
// for non-string layouts.
func (b Batch) Dict(c int) *Dict { return b.img.cols[c].dict }

// numBatches returns the batch count covering n rows.
func numBatches(n int) int { return (n + BatchSize - 1) / BatchSize }

// batches iterates the row pages as batches, building the page images
// that are missing and counting those builds into s.
func (r *Relation) batches(s *OpStats) iter.Seq[Batch] {
	return func(yield func(Batch) bool) {
		for pi := range r.rows.numPages() {
			if !yield(Batch{img: r.pageImage(pi, s), attrs: r.attrs, start: pi << pageBits}) {
				return
			}
		}
	}
}

// Batches returns an iterator over the relation column-major, one batch
// per row page — the counterpart of All. A page is vectorized the first
// time an iteration reaches it; its image then serves every later
// iteration, over this relation and over its clones, until a mutation
// writes the page. The relation must not be mutated while iterating.
func (r *Relation) Batches() iter.Seq[Batch] { return r.batches(nil) }
