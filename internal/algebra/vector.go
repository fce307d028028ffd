package algebra

import (
	"cmp"
	"strings"

	"dwcomplement/internal/relation"
)

// This file compiles selection conditions to vectorized batch predicates:
// a Cond becomes a tree of mask evaluators, each filling a boolean mask
// for one batch of the input with typed inner loops (int64/float64/bool
// vectors, dictionary-code tables for strings) instead of per-row Value
// boxing. A condition is compiled against attribute positions only: the
// layout of a column is a property of the batch (pages of one relation
// may differ), so each kernel picks its typed loop when it meets the
// batch — one switch per BatchSize rows. Compilation preserves EvalCond's
// semantics bit for bit — incomparable operands and missing attributes
// evaluate to false, NULL compares equal only to NULL — with a generic
// per-value fallback for mixed-kind (ColAny) columns, so the vectorized
// and scalar selection paths are interchangeable (asserted by the
// columnar-vs-reference property tests).

// vectorizeThreshold is the input size below which scalar selection wins:
// building or consulting page images only pays for itself once the typed
// inner loops have enough rows to amortize compilation.
const vectorizeThreshold = 128

// maskEval fills mask[i] (i batch-local) with the condition's value.
type maskEval func(b relation.Batch, mask []bool)

// vectorSelect evaluates σ_cond(in), choosing the vectorized path for
// large inputs and falling back to the scalar row loop for small ones.
func vectorSelect(in *relation.Relation, c Cond, sp *relation.OpStats) *relation.Relation {
	if in.Len() >= vectorizeThreshold {
		if pred := CompileBatchPred(c, in.Attrs()); pred != nil {
			return relation.SelectBatchStats(in, pred, sp)
		}
	}
	return relation.SelectStats(in, func(row relation.Row) bool { return EvalCond(c, row) }, sp)
}

// CompileBatchPred compiles the condition, over a relation with the given
// attribute order, into a batch predicate producing selection vectors. It
// returns nil only for condition nodes it does not recognize (a foreign
// Cond implementation); every condition built from this package's
// constructors compiles. The predicate keeps scratch between calls: one
// goroutine at a time.
func CompileBatchPred(c Cond, attrs []string) relation.BatchPred {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	ev := compileMask(c, pos)
	if ev == nil {
		return nil
	}
	mask := make([]bool, relation.BatchSize)
	return func(b relation.Batch, sel []int32) []int32 {
		m := mask[:b.Len()]
		ev(b, m)
		for i, ok := range m {
			if ok {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
}

// compileMask compiles one condition node; nil means "unknown node".
func compileMask(c Cond, pos map[string]int) maskEval {
	switch n := c.(type) {
	case True:
		return constMask(true)
	case *Cmp:
		return compileCmp(n, pos)
	case *And:
		l, r := compileMask(n.L, pos), compileMask(n.R, pos)
		if l == nil || r == nil {
			return nil
		}
		scratch := make([]bool, relation.BatchSize)
		return func(b relation.Batch, mask []bool) {
			l(b, mask)
			s := scratch[:b.Len()]
			r(b, s)
			for i := range mask {
				mask[i] = mask[i] && s[i]
			}
		}
	case *Or:
		l, r := compileMask(n.L, pos), compileMask(n.R, pos)
		if l == nil || r == nil {
			return nil
		}
		scratch := make([]bool, relation.BatchSize)
		return func(b relation.Batch, mask []bool) {
			l(b, mask)
			s := scratch[:b.Len()]
			r(b, s)
			for i := range mask {
				mask[i] = mask[i] || s[i]
			}
		}
	case *Not:
		inner := compileMask(n.C, pos)
		if inner == nil {
			return nil
		}
		return func(b relation.Batch, mask []bool) {
			inner(b, mask)
			for i := range mask {
				mask[i] = !mask[i]
			}
		}
	default:
		return nil
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

func compileCmp(n *Cmp, pos map[string]int) maskEval {
	left, op, right := n.Left, n.Op, n.Right
	// Normalize to attr-op-X by mirroring a constant left operand.
	if !left.IsAttr && right.IsAttr {
		left, op, right = right, op.mirror(), left
	}
	if !left.IsAttr { // const vs const: a compile-time verdict
		return constMask(scalarCmp(op, left.Val, right.Val))
	}
	lp, ok := pos[left.Attr]
	if !ok { // missing attribute: EvalCond yields false
		return constMask(false)
	}
	if right.IsAttr {
		rp, ok := pos[right.Attr]
		if !ok {
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
	ci, cf, cb, cs := cv.AsInt(), cv.AsFloat(), cv.AsBool(), cv.AsString()
	var verdicts []bool
	if ck == relation.KindString {
		verdicts = make([]bool, relation.BatchSize) // a page dictionary holds at most one string per row
	}
	return func(b relation.Batch, mask []bool) {
		switch kind := b.ColKind(lp); {
		case kind == relation.ColInt && ck == relation.KindInt:
			for i, v := range b.Ints(lp) {
				mask[i] = opMatch(op, cmpInt(v, ci))
			}
		case kind == relation.ColInt && ck == relation.KindFloat:
			for i, v := range b.Ints(lp) {
				mask[i] = opMatch(op, cmpFloat(float64(v), cf))
			}
		case kind == relation.ColFloat && ck.Numeric():
			for i, v := range b.Floats(lp) {
				mask[i] = opMatch(op, cmpFloat(v, cf))
			}
		case kind == relation.ColBool && ck == relation.KindBool:
			for i, v := range b.Bools(lp) {
				mask[i] = opMatch(op, cmpBool(v, cb))
			}
		case kind == relation.ColString && ck == relation.KindString:
			// Decide once per dictionary code instead of once per row: the
			// verdict table turns any comparison into a code-indexed load.
			dict := b.Dict(lp)
			verdict := verdicts[:dict.Len()]
			for code := range verdict {
				verdict[code] = opMatch(op, strings.Compare(dict.Value(int32(code)), cs))
			}
			for i, code := range b.Codes(lp) {
				mask[i] = verdict[code]
			}
		case kind == relation.ColAny: // generic per-value loop, NULLs included
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

// compileAttrAttr builds the kernel for column lp against column rp.
func compileAttrAttr(op CmpOp, lp, rp int) maskEval {
	// NULL-vs-NULL rows compare equal; NULL vs non-NULL is incomparable.
	nullPair := opMatch(op, 0)
	return func(b relation.Batch, mask []bool) {
		switch lk, rk := b.ColKind(lp), b.ColKind(rp); {
		case lk == relation.ColInt && rk == relation.ColInt:
			l, r := b.Ints(lp), b.Ints(rp)
			for i := range mask {
				mask[i] = opMatch(op, cmpInt(l[i], r[i]))
			}
		case lk == relation.ColInt && rk == relation.ColFloat:
			l, r := b.Ints(lp), b.Floats(rp)
			for i := range mask {
				mask[i] = opMatch(op, cmpFloat(float64(l[i]), r[i]))
			}
		case lk == relation.ColFloat && rk == relation.ColInt:
			l, r := b.Floats(lp), b.Ints(rp)
			for i := range mask {
				mask[i] = opMatch(op, cmpFloat(l[i], float64(r[i])))
			}
		case lk == relation.ColFloat && rk == relation.ColFloat:
			l, r := b.Floats(lp), b.Floats(rp)
			for i := range mask {
				mask[i] = opMatch(op, cmpFloat(l[i], r[i]))
			}
		case lk == relation.ColBool && rk == relation.ColBool:
			l, r := b.Bools(lp), b.Bools(rp)
			for i := range mask {
				mask[i] = opMatch(op, cmpBool(l[i], r[i]))
			}
		case lk == relation.ColString && rk == relation.ColString:
			// Two dictionaries: codes do not compare, strings do.
			l, ld, r, rd := b.Codes(lp), b.Dict(lp), b.Codes(rp), b.Dict(rp)
			for i := range mask {
				mask[i] = opMatch(op, strings.Compare(ld.Value(l[i]), rd.Value(r[i])))
			}
		default:
			// Mixed typed/ColAny layouts, or typed layouts of incomparable
			// kinds (where only NULL-NULL rows could match): generic loop.
			for i := range mask {
				mask[i] = scalarCmp(op, b.Value(lp, i), b.Value(rp, i))
			}
			return
		}
		if b.HasNulls(lp) || b.HasNulls(rp) {
			for i := range mask {
				if ln, rn := b.IsNull(lp, i), b.IsNull(rp, i); ln || rn {
					mask[i] = ln && rn && nullPair
				}
			}
		}
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat mirrors Value.Compare on floats: NaN equals NaN and sorts
// below every number.
func cmpFloat(a, b float64) int { return cmp.Compare(a, b) }

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	default:
		return 0
	}
}
