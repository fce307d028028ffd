package algebra

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"dwcomplement/internal/relation"
)

// This file is the engine's selection: a Cond is compiled to a tree of
// mask evaluators, each filling a boolean mask for one page of the input
// with typed inner loops (int64/float64 vectors, dictionary-code tables
// for strings) instead of per-row Value boxing. A condition is
// compiled against attribute positions only: the layout of a column is a
// property of the page (pages of one relation may differ), so each kernel
// picks its typed loop when it meets the batch — one switch per page.
// Compilation preserves EvalCond's semantics bit for bit — incomparable
// operands and missing attributes evaluate to false, NULL compares equal
// only to NULL — with a generic per-value loop for mixed-kind (ColAny)
// and bool columns and for column-to-column comparisons (asserted against
// EvalCond by the columnar-vs-reference property tests). Every σ runs
// here, whatever the size of its input: stored relations, operator
// results and maintenance deltas alike.

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

// compileMask compiles one condition node.
func compileMask(c Cond, attrs []string) maskEval {
	switch n := c.(type) {
	case True:
		return constMask(true)
	case *Cmp:
		return compileCmp(n, attrs)
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

func constMask(v bool) maskEval {
	return func(b relation.Batch, mask []bool) {
		for i := range mask {
			mask[i] = v
		}
	}
}

// opMatch reports whether a three-way comparison result satisfies op —
// the single source of truth shared by every typed kernel, mirroring
// EvalCond's switch.
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

func compileCmp(n *Cmp, attrs []string) maskEval {
	left, op, right := n.Left, n.Op, n.Right
	// Normalize to attr-op-X by mirroring a constant left operand.
	if !left.IsAttr && right.IsAttr {
		left, op, right = right, op.mirror(), left
	}
	if !left.IsAttr { // const vs const: a compile-time verdict
		return constMask(scalarCmp(op, left.Val, right.Val))
	}
	lp := slices.Index(attrs, left.Attr)
	if lp < 0 { // missing attribute: EvalCond yields false
		return constMask(false)
	}
	if right.IsAttr {
		rp := slices.Index(attrs, right.Attr)
		if rp < 0 {
			return constMask(false)
		}
		return compileAttrAttr(op, lp, rp)
	}
	return compileAttrConst(op, lp, right.Val)
}

// compileAttrConst builds the kernel for column lp against a constant.
// The typed loops run over every row — a NULL row's payload slot holds the
// zero value — and a second pass withdraws the NULL rows' verdicts.
func compileAttrConst(op CmpOp, lp int, cv relation.Value) maskEval {
	// NULL constant: only NULL rows compare (equal), per Value.Compare.
	if cv.IsNull() {
		match := opMatch(op, 0)
		return func(b relation.Batch, mask []bool) {
			for i := range mask {
				mask[i] = match && b.IsNull(lp, i)
			}
		}
	}
	ck := cv.Kind()
	ci, cf, cs := cv.AsInt(), cv.AsFloat(), cv.AsString()
	var verdicts []bool
	return func(b relation.Batch, mask []bool) {
		switch kind := b.ColKind(lp); {
		case kind == relation.ColInt && ck == relation.KindInt:
			for i, v := range b.Ints(lp) {
				mask[i] = opMatch(op, cmp.Compare(v, ci))
			}
		// On floats cmp.Compare is Value.Compare: NaN equals NaN and sorts
		// below every number.
		case kind == relation.ColInt && ck == relation.KindFloat:
			for i, v := range b.Ints(lp) {
				mask[i] = opMatch(op, cmp.Compare(float64(v), cf))
			}
		case kind == relation.ColFloat && ck.Numeric():
			for i, v := range b.Floats(lp) {
				mask[i] = opMatch(op, cmp.Compare(v, cf))
			}
		case kind == relation.ColString && ck == relation.KindString:
			// Decide once per dictionary code instead of once per row: the
			// verdict table turns any comparison into a code-indexed load.
			dict := b.Dict(lp)
			verdict := scratch(&verdicts, dict.Len())
			for code := range verdict {
				verdict[code] = opMatch(op, strings.Compare(dict.Value(int32(code)), cs))
			}
			for i, code := range b.Codes(lp) {
				mask[i] = verdict[code]
			}
		case kind == relation.ColAny || kind == relation.ColBool: // generic per-value loop, NULLs included
			for i := range mask {
				mask[i] = scalarCmp(op, b.Value(lp, i), cv)
			}
			return
		default: // typed column vs a constant of an incomparable kind
			clear(mask)
			return
		}
		if b.HasNulls(lp) {
			for i := range mask {
				mask[i] = mask[i] && !b.IsNull(lp, i)
			}
		}
	}
}

// compileAttrAttr builds the kernel for column lp against column rp: the
// generic per-value loop, EvalCond's semantics by construction. Views and
// queries select on constants; a column-to-column σ is rare enough that
// typed loops for it would be code without a workload.
func compileAttrAttr(op CmpOp, lp, rp int) maskEval {
	return func(b relation.Batch, mask []bool) {
		for i := range mask {
			mask[i] = scalarCmp(op, b.Value(lp, i), b.Value(rp, i))
		}
	}
}
