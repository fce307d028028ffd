package relation

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindNull, "any"},
		{KindBool, "bool"},
		{KindInt, "int"},
		{KindFloat, "float"},
		{KindString, "string"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	for _, name := range []string{"any", "bool", "int", "float", "string"} {
		k, ok := KindFromName(name)
		if !ok {
			t.Fatalf("KindFromName(%q) not recognized", name)
		}
		if k.String() != name {
			t.Errorf("round trip %q -> %v -> %q", name, k, k.String())
		}
	}
	if _, ok := KindFromName("decimal"); ok {
		t.Error("KindFromName accepted unknown name")
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if Bool(true).AsBool() != true {
		t.Error("Bool payload lost")
	}
	if Int(42).AsInt() != 42 {
		t.Error("Int payload lost")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float payload lost")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int.AsFloat widening failed")
	}
	if String_("x").AsString() != "x" {
		t.Error("String payload lost")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Value
		want   int
		wantOK bool
	}{
		{"int eq", Int(1), Int(1), 0, true},
		{"int lt", Int(1), Int(2), -1, true},
		{"int gt", Int(3), Int(2), 1, true},
		{"int float eq", Int(2), Float(2.0), 0, true},
		{"float int lt", Float(1.5), Int(2), -1, true},
		{"nan nan", Float(math.NaN()), Float(math.NaN()), 0, true},
		{"nan below int", Float(math.NaN()), Int(5), -1, true},
		{"float above nan", Float(-1), Float(math.NaN()), 1, true},
		{"negative zero", Float(math.Copysign(0, -1)), Int(0), 0, true},
		{"string", String_("a"), String_("b"), -1, true},
		{"string eq", String_("a"), String_("a"), 0, true},
		{"bool", Bool(false), Bool(true), -1, true},
		{"bool eq", Bool(true), Bool(true), 0, true},
		{"null null", Null(), Null(), 0, true},
		{"null int", Null(), Int(0), 0, false},
		{"string int", String_("1"), Int(1), 0, false},
		{"bool int", Bool(true), Int(1), 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.a.Compare(tt.b)
			if got != tt.want || ok != tt.wantOK {
				t.Errorf("Compare(%v,%v) = (%d,%v), want (%d,%v)", tt.a, tt.b, got, ok, tt.want, tt.wantOK)
			}
		})
	}
}

// TestCompareZeroIffEqual: σ's equality (Compare == 0) and the hash
// paths' equality (Equal) are one relation, so an index probe and a
// selection can stand in for each other.
func TestCompareZeroIffEqual(t *testing.T) {
	vals := []Value{Null(), Bool(false), Bool(true), Int(0), Int(2), Int(1<<53 + 1), Float(0), Float(math.Copysign(0, -1)),
		Float(2), Float(2.5), Float(1 << 53), Float(math.NaN()), Float(math.Inf(1)), String_(""), String_("2")}
	for _, a := range vals {
		for _, b := range vals {
			c, ok := a.Compare(b)
			if eq := ok && c == 0; eq != a.Equal(b) {
				t.Errorf("Compare(%v,%v) = (%d,%v) but Equal = %v", a, b, c, ok, a.Equal(b))
			}
			if a.Equal(b) && a.hash64() != b.hash64() {
				t.Errorf("%v equals %v but they hash apart", a, b)
			}
		}
	}
}

func TestValueEqualNumericCoercion(t *testing.T) {
	if !Int(7).Equal(Float(7)) {
		t.Error("Int(7) != Float(7)")
	}
	if Int(7).Equal(Float(7.5)) {
		t.Error("Int(7) == Float(7.5)")
	}
	if String_("7").Equal(Int(7)) {
		t.Error("string/int cross-kind equality")
	}
}

func TestValueKeyInjective(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false),
		Int(0), Int(1), Int(-1), Int(1 << 60),
		Float(0), Float(0.5), Float(-3.25),
		String_(""), String_("a"), String_("a|b"), String_("0"), String_("null"),
	}
	keys := make(map[string]Value)
	for _, v := range vals {
		var b strings.Builder
		v.appendKey(&b)
		k := b.String()
		if prev, dup := keys[k]; dup && !prev.Equal(v) {
			t.Errorf("key collision: %v and %v both encode to %q", prev, v, k)
		}
		keys[k] = v
	}
	// Int and Float of the same number must collide (set semantics agrees
	// with Equal).
	var bi, bf strings.Builder
	Int(5).appendKey(&bi)
	Float(5).appendKey(&bf)
	if bi.String() != bf.String() {
		t.Errorf("Int(5) and Float(5) encode differently: %q vs %q", bi.String(), bf.String())
	}
}

func TestValueKeyQuick(t *testing.T) {
	// Property: two int values encode equally iff they are equal.
	f := func(a, b int64) bool {
		var ka, kb strings.Builder
		Int(a).appendKey(&ka)
		Int(b).appendKey(&kb)
		return (ka.String() == kb.String()) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Property: string values encode injectively even with separators.
	g := func(a, b string) bool {
		var ka, kb strings.Builder
		String_(a).appendKey(&ka)
		String_(b).appendKey(&kb)
		return (ka.String() == kb.String()) == (a == b)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Bool(true), "true"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{String_("hello"), "hello"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("%#v.String() = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestValueLiteral(t *testing.T) {
	if got := String_("it's").Literal(); got != `'it\'s'` {
		t.Errorf("Literal = %q", got)
	}
	if got := Int(4).Literal(); got != "4" {
		t.Errorf("Literal = %q", got)
	}
	if got := String_(`a\b`).Literal(); got != `'a\\b'` {
		t.Errorf("Literal = %q", got)
	}
}

func TestValueLessTotalOrder(t *testing.T) {
	vals := []Value{Null(), Bool(false), Bool(true), Int(1), Int(2), Float(1.5), String_("a"), String_("b")}
	// Antisymmetry and transitivity spot checks.
	for _, a := range vals {
		if a.Less(a) {
			t.Errorf("%v < itself", a)
		}
		for _, b := range vals {
			if a.Less(b) && b.Less(a) {
				t.Errorf("both %v<%v and %v<%v", a, b, b, a)
			}
			if !a.Less(b) && !b.Less(a) {
				// Must be "equal" under the total order: same key or same kind-pair treated equal.
				if !a.Equal(b) && !(a.numeric() && b.numeric() && a.AsFloat() == b.AsFloat()) {
					if a.Kind() != b.Kind() || a.String() != b.String() {
						t.Errorf("%v and %v incomparable under Less", a, b)
					}
				}
			}
		}
	}
	if !Int(1).Less(Float(1.5)) || !Float(1.5).Less(Int(2)) {
		t.Error("numeric cross-kind Less broken")
	}
}

func TestCheckKind(t *testing.T) {
	tests := []struct {
		v    Value
		want Kind
		ok   bool
	}{
		{Int(1), KindInt, true},
		{Int(1), KindFloat, true}, // widening
		{Float(1), KindInt, false},
		{String_("x"), KindString, true},
		{String_("x"), KindInt, false},
		{Null(), KindInt, true},
		{Int(1), KindNull, true},
		{Bool(true), KindBool, true},
	}
	for _, tt := range tests {
		if got := tt.v.CheckKind(tt.want); got != tt.ok {
			t.Errorf("CheckKind(%v, %v) = %v, want %v", tt.v, tt.want, got, tt.ok)
		}
	}
}
