package algebra

import (
	"cmp"
	"strings"

	"dwcomplement/internal/relation"
)

// This file compiles selection conditions to vectorized batch predicates:
// a Cond becomes a tree of mask evaluators, each filling a boolean mask
// for one BatchSize window of the input's columnar image with typed inner
// loops (int64/float64/bool vectors, dictionary-code tables for strings)
// instead of per-row Value boxing. Compilation preserves EvalCond's
// semantics bit for bit — incomparable operands and missing attributes
// evaluate to false, NULL compares equal only to NULL — with a generic
// per-value fallback for mixed-kind (ColAny) columns, so the vectorized
// and scalar selection paths are interchangeable (asserted by the
// columnar-vs-reference property tests).

// vectorizeThreshold is the input size below which scalar selection wins:
// building or consulting the columnar image only pays for itself once the
// typed inner loops have enough rows to amortize compilation.
const vectorizeThreshold = 128

// maskEval fills mask[i] (i batch-local) with the condition's value.
type maskEval func(b relation.Batch, mask []bool)

// vectorSelect evaluates σ_cond(in), choosing the vectorized path for
// large inputs and falling back to the scalar row loop for small ones.
func vectorSelect(in *relation.Relation, c Cond, sp *relation.OpStats) *relation.Relation {
	if in.Len() >= vectorizeThreshold {
		if pred := CompileBatchPred(c, in.Columns()); pred != nil {
			return relation.SelectBatchStats(in, pred, sp)
		}
	}
	return relation.SelectStats(in, func(row relation.Row) bool { return EvalCond(c, row) }, sp)
}

// CompileBatchPred compiles the condition against a columnar image into a
// batch predicate producing selection vectors. It returns nil only for
// condition nodes it does not recognize (a foreign Cond implementation);
// every condition built from this package's constructors compiles.
func CompileBatchPred(c Cond, cols *relation.Columns) relation.BatchPred {
	pos := make(map[string]int, len(cols.Attrs()))
	for i, a := range cols.Attrs() {
		pos[a] = i
	}
	ev := compileMask(c, cols, pos)
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
func compileMask(c Cond, cols *relation.Columns, pos map[string]int) maskEval {
	switch n := c.(type) {
	case True:
		return constMask(true)
	case *Cmp:
		return compileCmp(n, cols, pos)
	case *And:
		l, r := compileMask(n.L, cols, pos), compileMask(n.R, cols, pos)
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
		l, r := compileMask(n.L, cols, pos), compileMask(n.R, cols, pos)
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
		inner := compileMask(n.C, cols, pos)
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

func compileCmp(n *Cmp, cols *relation.Columns, pos map[string]int) maskEval {
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
		return compileAttrAttr(op, cols, lp, rp)
	}
	return compileAttrConst(op, cols, lp, right.Val)
}

// compileAttrConst builds the kernel for column lp against a constant.
func compileAttrConst(op CmpOp, cols *relation.Columns, lp int, cv relation.Value) maskEval {
	col := cols.Col(lp)
	// NULL constant: only NULL rows compare (equal), per Value.Compare.
	if cv.IsNull() {
		match := opMatch(op, 0)
		return func(b relation.Batch, mask []bool) {
			for i := range mask {
				mask[i] = match && b.IsNull(lp, i)
			}
		}
	}
	switch col.Kind {
	case relation.ColInt:
		switch cv.Kind() {
		case relation.KindInt:
			k := cv.AsInt()
			return nullGuarded(lp, func(b relation.Batch, mask []bool, null func(int) bool) {
				v := b.Ints(lp)
				for i := range mask {
					mask[i] = !null(i) && opMatch(op, cmpInt(v[i], k))
				}
			})
		case relation.KindFloat:
			k := cv.AsFloat()
			return nullGuarded(lp, func(b relation.Batch, mask []bool, null func(int) bool) {
				v := b.Ints(lp)
				for i := range mask {
					mask[i] = !null(i) && opMatch(op, cmpFloat(float64(v[i]), k))
				}
			})
		default: // int column vs non-numeric constant: incomparable
			return constMask(false)
		}
	case relation.ColFloat:
		if !cv.Kind().Numeric() {
			return constMask(false)
		}
		k := cv.AsFloat()
		return nullGuarded(lp, func(b relation.Batch, mask []bool, null func(int) bool) {
			v := b.Floats(lp)
			for i := range mask {
				mask[i] = !null(i) && opMatch(op, cmpFloat(v[i], k))
			}
		})
	case relation.ColBool:
		if cv.Kind() != relation.KindBool {
			return constMask(false)
		}
		k := cv.AsBool()
		return nullGuarded(lp, func(b relation.Batch, mask []bool, null func(int) bool) {
			v := b.Bools(lp)
			for i := range mask {
				mask[i] = !null(i) && opMatch(op, cmpBool(v[i], k))
			}
		})
	case relation.ColString:
		if cv.Kind() != relation.KindString {
			return constMask(false)
		}
		// Decide once per dictionary code instead of once per row: the
		// verdict table turns any comparison into a code-indexed load.
		s := cv.AsString()
		verdict := make([]bool, col.Dict.Len())
		for code := range verdict {
			verdict[code] = opMatch(op, strings.Compare(col.Dict.Value(int32(code)), s))
		}
		return nullGuarded(lp, func(b relation.Batch, mask []bool, null func(int) bool) {
			v := b.Codes(lp)
			for i := range mask {
				mask[i] = !null(i) && verdict[v[i]]
			}
		})
	default: // ColAny: generic per-value loop
		return func(b relation.Batch, mask []bool) {
			for i := range mask {
				mask[i] = scalarCmp(op, b.Value(lp, i), cv)
			}
		}
	}
}

// compileAttrAttr builds the kernel for column lp against column rp.
func compileAttrAttr(op CmpOp, cols *relation.Columns, lp, rp int) maskEval {
	lc, rc := cols.Col(lp), cols.Col(rp)
	// NULL-vs-NULL rows compare equal; NULL vs non-NULL is incomparable.
	nullPair := opMatch(op, 0)
	generic := func(b relation.Batch, mask []bool) {
		for i := range mask {
			mask[i] = scalarCmp(op, b.Value(lp, i), b.Value(rp, i))
		}
	}
	kernel := func(cmp func(b relation.Batch, i int) int) maskEval {
		return func(b relation.Batch, mask []bool) {
			for i := range mask {
				ln, rn := b.IsNull(lp, i), b.IsNull(rp, i)
				if ln || rn {
					mask[i] = ln && rn && nullPair
					continue
				}
				mask[i] = opMatch(op, cmp(b, i))
			}
		}
	}
	switch {
	case lc.Kind == relation.ColInt && rc.Kind == relation.ColInt:
		return kernel(func(b relation.Batch, i int) int { return cmpInt(b.Ints(lp)[i], b.Ints(rp)[i]) })
	case lc.Kind == relation.ColInt && rc.Kind == relation.ColFloat:
		return kernel(func(b relation.Batch, i int) int { return cmpFloat(float64(b.Ints(lp)[i]), b.Floats(rp)[i]) })
	case lc.Kind == relation.ColFloat && rc.Kind == relation.ColInt:
		return kernel(func(b relation.Batch, i int) int { return cmpFloat(b.Floats(lp)[i], float64(b.Ints(rp)[i])) })
	case lc.Kind == relation.ColFloat && rc.Kind == relation.ColFloat:
		return kernel(func(b relation.Batch, i int) int { return cmpFloat(b.Floats(lp)[i], b.Floats(rp)[i]) })
	case lc.Kind == relation.ColBool && rc.Kind == relation.ColBool:
		return kernel(func(b relation.Batch, i int) int { return cmpBool(b.Bools(lp)[i], b.Bools(rp)[i]) })
	case lc.Kind == relation.ColString && rc.Kind == relation.ColString:
		ld, rd := lc.Dict, rc.Dict
		return kernel(func(b relation.Batch, i int) int {
			return strings.Compare(ld.Value(b.Codes(lp)[i]), rd.Value(b.Codes(rp)[i]))
		})
	default:
		// Mixed typed/ColAny layouts, or typed layouts of incomparable
		// kinds (where only NULL-NULL rows could match): generic loop.
		return generic
	}
}

// nullGuarded wraps a kernel with the cheapest applicable NULL check: a
// constant-false closure on dense columns, the bitmap on sparse ones.
func nullGuarded(p int, body func(b relation.Batch, mask []bool, null func(int) bool)) maskEval {
	noNull := func(int) bool { return false }
	return func(b relation.Batch, mask []bool) {
		if !b.HasNulls(p) {
			body(b, mask, noNull)
			return
		}
		body(b, mask, func(i int) bool { return b.IsNull(p, i) })
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
