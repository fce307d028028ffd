// Package relation implements the data model underlying the reproduction of
// "Complements for Data Warehouses" (Laurent, Lechtenbörger, Spyratos,
// Vossen; ICDE 1999): typed attribute values, relation schemata with
// optional keys, and in-memory relations with set semantics together with
// the physical relational operators (selection, projection, natural join,
// extension join, union, difference, rename) that the symbolic algebra of
// package algebra evaluates against.
//
// The paper works with set-based relational algebra over relations drawn
// from several autonomous source databases; this package is the common
// substrate for sources, the warehouse, and complements alike.
package relation

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the engine. KindNull doubles
// as the "untyped" marker on attribute declarations: an attribute declared
// with KindNull accepts values of any kind.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase name of the kind as used by the .dw DSL.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "any"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is numeric (int or float), the pair
// that compares cross-kind in Value.Compare.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// KindFromName parses a kind name from the DSL ("int", "float", "string",
// "bool", "any"). It reports whether the name was recognized.
func KindFromName(name string) (Kind, bool) {
	switch name {
	case "any":
		return KindNull, true
	case "bool":
		return KindBool, true
	case "int":
		return KindInt, true
	case "float":
		return KindFloat, true
	case "string":
		return KindString, true
	default:
		return KindNull, false
	}
}

// Value is an immutable typed attribute value. The zero Value is SQL-style
// NULL. Values are small and passed by value throughout the engine.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String_ returns a string value. The trailing underscore avoids a clash
// with the fmt.Stringer method on Value.
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it is only meaningful for KindBool.
func (v Value) AsBool() bool { return v.b }

// AsInt returns the integer payload; it is only meaningful for KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the numeric payload as a float64 for KindInt and
// KindFloat values.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload; it is only meaningful for KindString.
func (v Value) AsString() string { return v.s }

// numeric reports whether the value is of a numeric kind.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports value equality. Integers and floats compare numerically
// (Int(2) equals Float(2.0)); NULL equals only NULL. Like Compare, two
// NaNs are equal — set semantics need a reflexive equality.
//
// This is the equality the join and semijoin probe paths verify hash
// hits with, so the same-kind cases run without the three-way Compare
// dispatch.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindBool:
			return v.b == o.b
		case KindInt:
			return v.i == o.i
		case KindFloat:
			return v.f == o.f || (v.f != v.f && o.f != o.f)
		default: // KindString
			return v.s == o.s
		}
	}
	if v.numeric() && o.numeric() {
		a, b := v.AsFloat(), o.AsFloat()
		return a == b || (a != a && b != b)
	}
	return false
}

// Compare orders two values. It returns -1, 0 or +1 and true when the
// values are comparable (same kind, or both numeric); otherwise it returns
// 0 and false. NULL is comparable only to NULL (and equal to it), which
// matches the engine's set semantics where NULL is a plain domain element.
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindNull || o.kind == KindNull {
		if v.kind == o.kind {
			return 0, true
		}
		return 0, false
	}
	if v.numeric() && o.numeric() {
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1, true
			case v.i > o.i:
				return 1, true
			default:
				return 0, true
			}
		}
		// cmp.Compare orders NaN below every number and equal to itself,
		// so Compare == 0 exactly where Equal holds; a plain </> switch
		// would call NaN equal to everything.
		return cmp.Compare(v.AsFloat(), o.AsFloat()), true
	}
	if v.kind != o.kind {
		return 0, false
	}
	switch v.kind {
	case KindBool:
		switch {
		case !v.b && o.b:
			return -1, true
		case v.b && !o.b:
			return 1, true
		default:
			return 0, true
		}
	case KindString:
		return strings.Compare(v.s, o.s), true
	default:
		return 0, false
	}
}

// Less is a total order over all values, used only for deterministic
// output ordering: values are ordered first by kind, then by payload
// (numeric kinds share one numeric order).
func (v Value) Less(o Value) bool {
	if v.numeric() && o.numeric() {
		c, _ := v.Compare(o)
		if c != 0 {
			return c < 0
		}
		return v.kind < o.kind
	}
	if v.kind != o.kind {
		return v.kind < o.kind
	}
	c, _ := v.Compare(o)
	return c < 0
}

// orderValues is the three-way form of Less — negative when *v sorts
// before *o, zero only for the same kind and payload — that Order compares
// the cells of a column without keys under: by pointer, and same-kind
// pairs first.
func orderValues(v, o *Value) int {
	if v.kind == o.kind {
		switch v.kind {
		case KindInt:
			return cmp.Compare(v.i, o.i)
		case KindString:
			return strings.Compare(v.s, o.s)
		case KindFloat:
			return cmp.Compare(v.f, o.f) // NaN lowest, -0 = +0
		case KindBool:
			switch {
			case !v.b && o.b:
				return -1
			case v.b && !o.b:
				return 1
			}
		}
		return 0
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		if c := cmp.Compare(v.AsFloat(), o.AsFloat()); c != 0 {
			return c
		}
	}
	return cmp.Compare(v.kind, o.kind)
}

// String renders the value for human-readable output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// Literal renders the value as a literal re-parseable by package parse:
// strings are single-quoted with backslash escaping, other kinds match
// their String form.
func (v Value) Literal() string {
	if v.kind != KindString {
		return v.String()
	}
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range v.s {
		if r == '\'' || r == '\\' {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('\'')
	return b.String()
}

// appendKey appends a canonical, injective, self-delimiting encoding of
// the value to b. Values that are Equal encode identically, so that set
// semantics agree with Equal: Int(2) and Float(2) share the float's
// encoding, -0.0 encodes as 0.0 and every NaN alike (canonicalFloatBits).
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, 'n')
	case KindBool:
		if v.b {
			return append(b, 'b', 1)
		}
		return append(b, 'b', 0)
	case KindInt:
		if f := float64(v.i); int64(f) == v.i {
			return binary.BigEndian.AppendUint64(append(b, 'f'), canonicalFloatBits(f))
		}
		return binary.BigEndian.AppendUint64(append(b, 'i'), uint64(v.i))
	case KindFloat:
		return binary.BigEndian.AppendUint64(append(b, 'f'), canonicalFloatBits(v.f))
	default: // KindString
		return append(binary.AppendUvarint(append(b, 's'), uint64(len(v.s))), v.s...)
	}
}

// AppendKey appends the value's canonical encoding, the one rows are keyed
// by (Batch.AppendKey).
func (v Value) AppendKey(b []byte) []byte { return v.appendKey(b) }

// hash64 returns a well-mixed 64-bit hash of the value, canonical under
// Equal: numerically equal int/float values hash identically (mirroring
// appendKey's collapse of Int(2) and Float(2)), -0.0 hashes as 0.0 and all
// NaN payloads hash alike (Compare treats them as equal). Hash-equal but
// unequal values are legal — set membership and index probes always
// re-verify with Equal.
func (v Value) hash64() uint64 {
	switch v.kind {
	case KindNull:
		return mix64(1)
	case KindBool:
		if v.b {
			return mix64(2<<8 | 1)
		}
		return mix64(2 << 8)
	case KindInt:
		// Compare() evaluates int-vs-float comparisons in float64, so all
		// numeric values hash through their float64 image; exact int-int
		// inequality past 2^53 is restored by the Equal re-verification.
		return mix64(3<<60 ^ canonicalFloatBits(float64(v.i)))
	case KindFloat:
		return mix64(3<<60 ^ canonicalFloatBits(v.f))
	case KindString:
		h := uint64(14695981039346656037) // FNV-64 offset basis
		for i := 0; i < len(v.s); i++ {
			h ^= uint64(v.s[i])
			h *= 1099511628211 // FNV-64 prime
		}
		return mix64(4<<60 ^ h)
	default:
		return mix64(uint64(v.kind))
	}
}

// canonicalFloatBits maps every Equal float to one bit pattern: -0.0
// collapses to +0.0 and every NaN to one quiet NaN.
func canonicalFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return 0x7ff8000000000000
	}
	return math.Float64bits(f)
}

// mix64 is the splitmix64 finalizer — a cheap full-avalanche mix. Tuple
// hashes are the *sum* of their values' mixed hashes, which makes them
// independent of column order: a tuple hashes the same in any attribute
// permutation, so aligned cross-relation probes never re-hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CheckKind reports whether the value may populate an attribute declared
// with kind want. KindNull-declared attributes accept everything; NULL
// values are accepted everywhere; integers are accepted by float
// attributes (widening).
func (v Value) CheckKind(want Kind) bool {
	if want == KindNull || v.kind == KindNull {
		return true
	}
	if want == KindFloat && v.kind == KindInt {
		return true
	}
	return v.kind == want
}
