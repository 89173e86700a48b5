package relational

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() || Null().Kind() != KindNull {
		t.Error("Null wrong")
	}
	if v, ok := Int(42).AsInt(); !ok || v != 42 {
		t.Error("Int wrong")
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Error("Float wrong")
	}
	if v, ok := Int(3).AsFloat(); !ok || v != 3 {
		t.Error("Int should coerce to float")
	}
	if v, ok := Text("hi").AsText(); !ok || v != "hi" {
		t.Error("Text wrong")
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Error("Bool wrong")
	}
	if _, ok := Text("x").AsInt(); ok {
		t.Error("AsInt on text should fail")
	}
	if _, ok := Bool(true).AsFloat(); ok {
		t.Error("AsFloat on bool should fail")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":   Null(),
		"42":     Int(42),
		"2.5":    Float(2.5),
		"'a''b'": Text("a'b"),
		"TRUE":   Bool(true),
		"FALSE":  Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", v.Kind(), got, want)
		}
	}
	if Text("x").Display() != "x" {
		t.Error("Display should not quote text")
	}
}

func TestCompare(t *testing.T) {
	mustCmp := func(a, b Value, want int) {
		t.Helper()
		got, err := Compare(a, b)
		if err != nil {
			t.Errorf("Compare(%s, %s): %v", a, b, err)
			return
		}
		if got != want {
			t.Errorf("Compare(%s, %s) = %d, want %d", a, b, got, want)
		}
	}
	mustCmp(Int(1), Int(2), -1)
	mustCmp(Int(2), Int(2), 0)
	mustCmp(Int(3), Int(2), 1)
	mustCmp(Int(1), Float(1.5), -1)
	mustCmp(Float(2.5), Int(2), 1)
	mustCmp(Float(2), Int(2), 0)
	mustCmp(Text("a"), Text("b"), -1)
	mustCmp(Bool(false), Bool(true), -1)
	mustCmp(Bool(true), Bool(true), 0)

	if _, err := Compare(Null(), Int(1)); err == nil {
		t.Error("comparing NULL should error")
	}
	if _, err := Compare(Int(1), Text("1")); err == nil {
		t.Error("comparing int with text should error")
	}
	if _, err := Compare(Bool(true), Text("t")); err == nil {
		t.Error("comparing bool with text should error")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Int(1), Float(1)) {
		t.Error("Int(1) should equal Float(1)")
	}
	if Equal(Null(), Null()) {
		t.Error("NULL never equals NULL")
	}
	if Equal(Int(1), Text("1")) {
		t.Error("kind mismatch should be unequal")
	}
}

func TestKeyDistinguishesKinds(t *testing.T) {
	if Int(1).Key() == Text("1").Key() {
		t.Error("Int(1) and Text(\"1\") must hash differently")
	}
	if Int(1).Key() != Float(1).Key() {
		t.Error("Int(1) and Float(1) are Compare-equal and must hash equal")
	}
	if Bool(true).Key() == Bool(false).Key() {
		t.Error("booleans must hash differently")
	}
	if Null().Key() == Int(0).Key() {
		t.Error("NULL must hash differently from 0")
	}
}

// Property: Compare is antisymmetric and consistent with Equal on integers.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := Compare(Int(a), Int(b))
		c2, err2 := Compare(Int(b), Int(a))
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2 && (c1 == 0) == Equal(Int(a), Int(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
