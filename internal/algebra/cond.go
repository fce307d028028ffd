package algebra

import (
	"fmt"

	"dwcomplement/internal/relation"
)

// Cond is a selection condition: comparisons between attributes and
// constants combined with and/or/not, as used by the paper's
// selection–projection–join views.
type Cond interface {
	isCond()
	// String renders the condition in the DSL syntax (re-parseable).
	String() string
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// The comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the DSL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Negate returns the complementary operator (= ↔ !=, < ↔ >=, ...).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		return op
	}
}

// Operand is one side of a comparison: either an attribute reference or a
// constant value.
type Operand struct {
	IsAttr bool
	Attr   string
	Val    relation.Value
}

// AttrOperand returns an attribute-reference operand.
func AttrOperand(name string) Operand { return Operand{IsAttr: true, Attr: name} }

// ConstOperand returns a constant operand.
func ConstOperand(v relation.Value) Operand { return Operand{Val: v} }

// String renders the operand: attribute name, or value literal.
func (o Operand) String() string {
	if o.IsAttr {
		return o.Attr
	}
	return o.Val.Literal()
}

// equal reports operand equality.
func (o Operand) equal(p Operand) bool {
	if o.IsAttr != p.IsAttr {
		return false
	}
	if o.IsAttr {
		return o.Attr == p.Attr
	}
	return o.Val.Equal(p.Val) && o.Val.Kind() == p.Val.Kind()
}

// True is the always-true condition (σ_true is the identity).
type True struct{}

// Cmp is the comparison Left Op Right.
type Cmp struct {
	Left  Operand
	Op    CmpOp
	Right Operand
}

// And is the conjunction L ∧ R.
type And struct {
	L, R Cond
}

// Or is the disjunction L ∨ R.
type Or struct {
	L, R Cond
}

// Not is the negation ¬C.
type Not struct {
	C Cond
}

func (True) isCond() {}
func (*Cmp) isCond() {}
func (*And) isCond() {}
func (*Or) isCond()  {}
func (*Not) isCond() {}

// Convenience constructors used pervasively by the complement algorithms.

// AttrEqConst returns the condition attr = value.
func AttrEqConst(attr string, v relation.Value) *Cmp {
	return &Cmp{Left: AttrOperand(attr), Op: OpEq, Right: ConstOperand(v)}
}

// AttrCmpConst returns the condition attr op value.
func AttrCmpConst(attr string, op CmpOp, v relation.Value) *Cmp {
	return &Cmp{Left: AttrOperand(attr), Op: op, Right: ConstOperand(v)}
}

// AttrCmpAttr returns the condition a op b over two attributes.
func AttrCmpAttr(a string, op CmpOp, b string) *Cmp {
	return &Cmp{Left: AttrOperand(a), Op: op, Right: AttrOperand(b)}
}

// AndAll folds conditions into a conjunction; with no arguments it returns
// True.
func AndAll(conds ...Cond) Cond {
	var out Cond = True{}
	for _, c := range conds {
		if _, isTrue := c.(True); isTrue {
			continue
		}
		if _, isTrue := out.(True); isTrue {
			out = c
		} else {
			out = &And{L: out, R: c}
		}
	}
	return out
}

// Conjuncts flattens a condition into its top-level conjuncts; True
// flattens to none. Disjunctions and negations stay as single conjuncts.
func Conjuncts(c Cond) []Cond {
	switch n := c.(type) {
	case True:
		return nil
	case *And:
		return append(Conjuncts(n.L), Conjuncts(n.R)...)
	default:
		return []Cond{c}
	}
}

// CloneCond returns a deep copy of the condition.
func CloneCond(c Cond) Cond {
	switch n := c.(type) {
	case True:
		return True{}
	case *Cmp:
		cp := *n
		return &cp
	case *And:
		return &And{L: CloneCond(n.L), R: CloneCond(n.R)}
	case *Or:
		return &Or{L: CloneCond(n.L), R: CloneCond(n.R)}
	case *Not:
		return &Not{C: CloneCond(n.C)}
	default:
		panic(fmt.Sprintf("algebra: unknown condition %T", c))
	}
}

// CondEqual reports structural equality of conditions.
func CondEqual(a, b Cond) bool {
	switch x := a.(type) {
	case True:
		_, ok := b.(True)
		return ok
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && x.Left.equal(y.Left) && x.Right.equal(y.Right)
	case *And:
		y, ok := b.(*And)
		return ok && CondEqual(x.L, y.L) && CondEqual(x.R, y.R)
	case *Or:
		y, ok := b.(*Or)
		return ok && CondEqual(x.L, y.L) && CondEqual(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && CondEqual(x.C, y.C)
	default:
		panic(fmt.Sprintf("algebra: unknown condition %T", a))
	}
}

// CondAttrs returns the set of attributes referenced by the condition.
func CondAttrs(c Cond) relation.AttrSet {
	out := relation.NewAttrSet()
	var walk func(Cond)
	walk = func(c Cond) {
		switch n := c.(type) {
		case True:
		case *Cmp:
			if n.Left.IsAttr {
				out[n.Left.Attr] = struct{}{}
			}
			if n.Right.IsAttr {
				out[n.Right.Attr] = struct{}{}
			}
		case *And:
			walk(n.L)
			walk(n.R)
		case *Or:
			walk(n.L)
			walk(n.R)
		case *Not:
			walk(n.C)
		default:
			panic(fmt.Sprintf("algebra: unknown condition %T", c))
		}
	}
	walk(c)
	return out
}

// IsTrivial reports whether the condition is the constant True — such
// selections never drop tuples, which the always-empty-complement analysis
// (Example 2.4) requires.
func IsTrivial(c Cond) bool {
	_, ok := c.(True)
	return ok
}

// EvalCond evaluates the condition on one row. Comparisons between
// incomparable values (e.g. a string attribute against an int constant)
// evaluate to false, as do comparisons referencing attributes missing from
// the row — static validation flags the latter before evaluation. The
// engine's σ is SelectCond, compiled per page; this row-at-a-time form is
// the reference the compiled one is tested against.
func EvalCond(c Cond, row relation.Row) bool {
	switch n := c.(type) {
	case True:
		return true
	case *Cmp:
		l, ok1 := operandValue(n.Left, row)
		r, ok2 := operandValue(n.Right, row)
		if !ok1 || !ok2 {
			return false
		}
		cmp, ok := l.Compare(r)
		if !ok {
			return false
		}
		// Its own switch, not opMatch: the reference shares no code with
		// the kernels it checks.
		switch n.Op {
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
	case *And:
		return EvalCond(n.L, row) && EvalCond(n.R, row)
	case *Or:
		return EvalCond(n.L, row) || EvalCond(n.R, row)
	case *Not:
		return !EvalCond(n.C, row)
	default:
		panic(fmt.Sprintf("algebra: unknown condition %T", c))
	}
}

func operandValue(o Operand, row relation.Row) (relation.Value, bool) {
	if !o.IsAttr {
		return o.Val, true
	}
	if !row.Has(o.Attr) {
		return relation.Null(), false
	}
	return row.Get(o.Attr), true
}

// RenameCondAttrs returns the condition with attribute references renamed
// per mapping (old→new); needed when conditions are pushed through ρ.
func RenameCondAttrs(c Cond, mapping map[string]string) Cond {
	ren := func(o Operand) Operand {
		if o.IsAttr {
			if n, ok := mapping[o.Attr]; ok {
				return AttrOperand(n)
			}
		}
		return o
	}
	switch n := c.(type) {
	case True:
		return True{}
	case *Cmp:
		return &Cmp{Left: ren(n.Left), Op: n.Op, Right: ren(n.Right)}
	case *And:
		return &And{L: RenameCondAttrs(n.L, mapping), R: RenameCondAttrs(n.R, mapping)}
	case *Or:
		return &Or{L: RenameCondAttrs(n.L, mapping), R: RenameCondAttrs(n.R, mapping)}
	case *Not:
		return &Not{C: RenameCondAttrs(n.C, mapping)}
	default:
		panic(fmt.Sprintf("algebra: unknown condition %T", c))
	}
}

func (True) String() string { return "true" }

func (c *Cmp) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

func (a *And) String() string {
	return condParen(a.L) + " and " + condParen(a.R)
}

func (o *Or) String() string {
	return condParen(o.L) + " or " + condParen(o.R)
}

func (n *Not) String() string {
	return "not " + condParen(n.C)
}

func condParen(c Cond) string {
	switch c.(type) {
	case *And, *Or:
		return "(" + c.String() + ")"
	default:
		return c.String()
	}
}
