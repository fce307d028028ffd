package algebra

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"dwcomplement/internal/relation"
)

// This file is the engine's selection: a Cond is compiled to kernels
// that read one page of the input with typed inner loops (int64/float64
// vectors, dictionary-code tables for strings) instead of per-row Value
// boxing. A comparison — the leaf of a condition, and the whole of most —
// appends the rows it selects to the selection vector directly; ∧, ∨ and
// ¬ combine their operands' verdicts as boolean masks over the page. A
// condition is compiled against attribute positions only: the layout of a
// column is a property of the page (pages of one relation may differ), so
// each kernel picks its typed loop when it meets the batch — one switch
// per page, the comparison operator included. Compilation preserves
// EvalCond's semantics bit for bit — incomparable operands and missing
// attributes evaluate to false, NULL compares equal only to NULL — with a
// generic per-value loop for mixed-kind (ColAny) and bool columns and for
// column-to-column comparisons (asserted against EvalCond by the
// columnar-vs-reference property tests). Every σ runs here, whatever the
// size of its input: stored relations, operator results and maintenance
// deltas alike.

// maskEval fills mask[i] (i batch-local) with the condition's value.
type maskEval func(b relation.Batch, mask []bool)

// SelectCond returns σ_c(in), counting into sp (nil disables counting).
func SelectCond(in *relation.Relation, c Cond, sp *relation.OpStats) *relation.Relation {
	return relation.SelectBatchStats(in, CompileBatchPred(c, in.Attrs()), sp)
}

// CompileBatchPred compiles the condition, over a relation with the given
// attribute order, into a batch predicate producing selection vectors. It
// panics on a condition node this package does not define. The predicate
// keeps scratch between calls, sized by the batches it meets: one
// goroutine at a time.
func CompileBatchPred(c Cond, attrs []string) relation.BatchPred {
	switch c.(type) {
	case True, *Cmp:
		return compileLeaf(c, attrs)
	}
	ev := compileMask(c, attrs)
	var mask []bool
	return func(b relation.Batch, sel []int32) []int32 {
		m := scratch(&mask, b.Len())
		ev(b, m)
		for i, ok := range m {
			if ok {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
}

// scratch returns (*buf)[:n], growing the buffer when it is shorter.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// compileMask compiles one condition node to a mask: a leaf's selection
// vector marked on it, the connectives combined.
func compileMask(c Cond, attrs []string) maskEval {
	switch n := c.(type) {
	case True, *Cmp:
		leaf := compileLeaf(c, attrs)
		var sel []int32
		return func(b relation.Batch, mask []bool) {
			clear(mask)
			sel = leaf(b, sel[:0])
			for _, i := range sel {
				mask[i] = true
			}
		}
	case *And:
		return combine(compileMask(n.L, attrs), compileMask(n.R, attrs), true)
	case *Or:
		return combine(compileMask(n.L, attrs), compileMask(n.R, attrs), false)
	case *Not:
		inner := compileMask(n.C, attrs)
		return func(b relation.Batch, mask []bool) {
			inner(b, mask)
			for i := range mask {
				mask[i] = !mask[i]
			}
		}
	default:
		panic(fmt.Sprintf("algebra: unknown condition %T", c))
	}
}

// combine is the mask of l ∧ r when and is set, of l ∨ r otherwise: r
// decides the rows on which l does not.
func combine(l, r maskEval, and bool) maskEval {
	var buf []bool
	return func(b relation.Batch, mask []bool) {
		l(b, mask)
		s := scratch(&buf, len(mask))
		r(b, s)
		for i := range mask {
			if mask[i] == and {
				mask[i] = s[i]
			}
		}
	}
}

// compileLeaf compiles True or a comparison to the kernel that appends the
// rows it selects.
func compileLeaf(c Cond, attrs []string) relation.BatchPred {
	if n, ok := c.(*Cmp); ok {
		return compileCmp(n, attrs)
	}
	return constSel(true)
}

// constSel selects every row of a batch, or none.
func constSel(v bool) relation.BatchPred {
	return func(b relation.Batch, sel []int32) []int32 {
		if v {
			for i := range b.Len() {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
}

// opMatch reports whether a three-way comparison result satisfies op,
// mirroring EvalCond's switch: the verdict of the per-value loops and of
// the string kernel's table (compareLoop spells each operator out as a
// loop of its own).
func opMatch(op CmpOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// mirror swaps the operand order: a op b ⇔ b mirror(op) a.
func (op CmpOp) mirror() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default: // Eq and Ne are symmetric
		return op
	}
}

// scalarCmp is EvalCond's comparison semantics on two boxed values.
func scalarCmp(op CmpOp, l, r relation.Value) bool {
	cmp, ok := l.Compare(r)
	return ok && opMatch(op, cmp)
}

func compileCmp(n *Cmp, attrs []string) relation.BatchPred {
	left, op, right := n.Left, n.Op, n.Right
	// Normalize to attr-op-X by mirroring a constant left operand.
	if !left.IsAttr && right.IsAttr {
		left, op, right = right, op.mirror(), left
	}
	if !left.IsAttr { // const vs const: a compile-time verdict
		return constSel(scalarCmp(op, left.Val, right.Val))
	}
	lp := slices.Index(attrs, left.Attr)
	if lp < 0 { // missing attribute: EvalCond yields false
		return constSel(false)
	}
	if right.IsAttr {
		rp := slices.Index(attrs, right.Attr)
		if rp < 0 {
			return constSel(false)
		}
		return compileAttrAttr(op, lp, rp)
	}
	return compileAttrConst(op, lp, right.Val)
}

// compileAttrConst builds the kernel for column lp against a constant.
// The typed loops run over every row — a NULL row's payload slot holds the
// zero value — and a second pass over the rows they selected withdraws the
// NULL ones.
func compileAttrConst(op CmpOp, lp int, cv relation.Value) relation.BatchPred {
	// NULL constant: only NULL rows compare (equal), per Value.Compare.
	if cv.IsNull() {
		match := opMatch(op, 0)
		return func(b relation.Batch, sel []int32) []int32 {
			for i := range b.Len() {
				if match && b.IsNull(lp, i) {
					sel = append(sel, int32(i))
				}
			}
			return sel
		}
	}
	ck := cv.Kind()
	ci, cf, cs := cv.AsInt(), cv.AsFloat(), cv.AsString()
	var verdicts []bool
	var widened []float64
	return func(b relation.Batch, sel []int32) []int32 {
		from := len(sel)
		switch kind := b.ColKind(lp); {
		case kind == relation.ColInt && ck == relation.KindInt:
			sel = compareLoop(op, b.Ints(lp), ci, sel)
		case kind == relation.ColInt && ck == relation.KindFloat: // Value.Compare widens the int
			fs := scratch(&widened, b.Len())
			for i, v := range b.Ints(lp) {
				fs[i] = float64(v)
			}
			sel = compareLoop(op, fs, cf, sel)
		case kind == relation.ColFloat && ck.Numeric():
			sel = compareLoop(op, b.Floats(lp), cf, sel)
		case kind == relation.ColString && ck == relation.KindString:
			// Decide once per dictionary code instead of once per row: the
			// verdict table turns any comparison into a code-indexed load.
			dict := b.Dict(lp)
			verdict := scratch(&verdicts, dict.Len())
			for code := range verdict {
				verdict[code] = opMatch(op, strings.Compare(dict.Value(int32(code)), cs))
			}
			for i, code := range b.Codes(lp) {
				if verdict[code] {
					sel = append(sel, int32(i))
				}
			}
		case kind == relation.ColAny || kind == relation.ColBool: // generic per-value loop, NULLs included
			for i := range b.Len() {
				if scalarCmp(op, b.Value(lp, i), cv) {
					sel = append(sel, int32(i))
				}
			}
			return sel
		default: // typed column vs a constant of an incomparable kind
			return sel
		}
		if b.HasNulls(lp) {
			kept := sel[:from]
			for _, i := range sel[from:] {
				if !b.IsNull(lp, int(i)) {
					kept = append(kept, i)
				}
			}
			sel = kept
		}
		return sel
	}
}

// compareLoop appends to sel the positions i where vs[i] op c holds under
// cmp.Compare's order, which on floats is Value.Compare's: NaN equals NaN
// and sorts below every number, -0 equals +0. The operator is switched on
// once per page: each loop is one test per row, which <, > and = want true
// and ≥, ≤ and ≠ false.
func compareLoop[T cmp.Ordered](op CmpOp, vs []T, c T, sel []int32) []int32 {
	want := op == OpLt || op == OpGt || op == OpEq
	switch op {
	case OpLt, OpGe:
		for i, v := range vs {
			if cmp.Less(v, c) == want {
				sel = append(sel, int32(i))
			}
		}
	case OpGt, OpLe:
		for i, v := range vs {
			if cmp.Less(c, v) == want {
				sel = append(sel, int32(i))
			}
		}
	case OpEq, OpNe:
		for i, v := range vs {
			if (!cmp.Less(v, c) && !cmp.Less(c, v)) == want {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// compileAttrAttr builds the kernel for column lp against column rp: the
// generic per-value loop, EvalCond's semantics by construction. Views and
// queries select on constants; a column-to-column σ is rare enough that
// typed loops for it would be code without a workload.
func compileAttrAttr(op CmpOp, lp, rp int) relation.BatchPred {
	return func(b relation.Batch, sel []int32) []int32 {
		for i := range b.Len() {
			if scalarCmp(op, b.Value(lp, i), b.Value(rp, i)) {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
}
