// Package batchlife is the failing fixture for the batchlife analyzer:
// relation.Batch windows used across mutations of their backing
// relation — the PR-6 use-after-invalidate class — next to the
// legitimate pattern (mutating a fresh output relation while ranging
// the input).
package batchlife

import (
	"context"

	"dwcomplement/internal/catalog"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/warehouse"
)

func mutateWhileRanging(r *relation.Relation, t relation.Tuple) {
	for b := range r.Batches() {
		_ = b.Len()
		r.Insert(t) // want "Batch window invalidated"
	}
}

func deleteWhileRanging(r *relation.Relation, t relation.Tuple) {
	for b := range r.Batches() {
		if b.Len() > 0 {
			r.Delete(t) // want "Batch window invalidated"
		}
	}
}

// An alias derived from the ranged relation is the same storage.
func mutateThroughAlias(r *relation.Relation, t relation.Tuple) {
	alias := r
	for b := range r.Batches() {
		_ = b
		alias.Insert(t) // want "Batch window invalidated"
	}
}

// A refresh-class call rewrites stored relations wholesale: every live
// batch window is invalidated, related or not.
func refreshWhileRanging(ctx context.Context, m *maintain.Maintainer, w *warehouse.Warehouse, u *catalog.Update, r *relation.Relation) {
	for b := range r.Batches() {
		_ = b
		_, _ = m.RefreshContext(ctx, w, u) // want "Batch window invalidated"
	}
}

// A batch that escapes its iteration and is read after a mutation reads
// the page the mutation wrote in place.
func useAfterInvalidate(r *relation.Relation, t relation.Tuple) int {
	var saved relation.Batch
	for b := range r.Batches() {
		saved = b
		break
	}
	r.Insert(t)
	return saved.Len() // want "Batch value used after"
}

// Mutating a fresh output relation while ranging the input is the
// normal operator shape (SelectBatchStats) — not flagged.
func freshOutputOK(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Attrs()...)
	for b := range r.Batches() {
		for i := 0; i < b.Len(); i++ {
			out.InsertValues(rowValues(b, i)...)
		}
	}
	return out
}

// Reading after the iteration finished (no escape) is fine.
func mutateAfterRanging(r *relation.Relation, t relation.Tuple) int {
	n := 0
	for b := range r.Batches() {
		n += b.Len()
	}
	r.Insert(t)
	return n
}

func rowValues(b relation.Batch, i int) []relation.Value {
	vals := make([]relation.Value, b.NumCols())
	for c := range vals {
		vals[c] = b.Value(c, i)
	}
	return vals
}
