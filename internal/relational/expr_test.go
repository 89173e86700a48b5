package relational

import (
	"fmt"
	"strings"
	"testing"
)

// MapEnv is a simple Env over a map; keys should be lower-case.
type MapEnv map[string]Value

// Col implements Env.
func (m MapEnv) Col(name string) (Value, error) {
	if v, ok := m[strings.ToLower(name)]; ok {
		return v, nil
	}
	return Null(), fmt.Errorf("relational: unknown column %q", name)
}

// evalStr parses and evaluates an expression against env, failing the test
// on error.
func evalStr(t *testing.T, src string, env Env) Value {
	t.Helper()
	v, err := parseExpr(t, src).Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	env := MapEnv{}
	cases := map[string]Value{
		"1 + 2":       Int(3),
		"7 - 10":      Int(-3),
		"6 * 7":       Int(42),
		"7 / 2":       Int(3),
		"7 % 3":       Int(1),
		"7.0 / 2":     Float(3.5),
		"1 + 2 * 3":   Int(7),
		"(1 + 2) * 3": Int(9),
		"-5 + 3":      Int(-2),
		"-(2.5)":      Float(-2.5),
		"1 + 2.5":     Float(3.5),
	}
	for src, want := range cases {
		if got := evalStr(t, src, env); !Equal(got, want) {
			t.Errorf("%q = %s, want %s", src, got, want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	for _, src := range []string{"1 / 0", "1 % 0", "1.5 % 2", "'a' + 1", "-'x'"} {
		e := parseExpr(t, src)
		if _, err := e.Eval(MapEnv{}); err == nil {
			t.Errorf("%q should fail to evaluate", src)
		}
	}
}

func TestComparisons(t *testing.T) {
	env := MapEnv{"x": Int(5), "name": Text("alice")}
	truths := []string{
		"x = 5", "x != 4", "x < 6", "x <= 5", "x > 4", "x >= 5",
		"name = 'alice'", "name < 'bob'",
		"x BETWEEN 5 AND 9", "x NOT BETWEEN 6 AND 9",
		"x IN (1, 3, 5)", "x NOT IN (2, 4)",
		"name LIKE 'ali%'", "name LIKE '%ice'", "name LIKE 'a_ice'",
		"name NOT LIKE 'bob%'",
		"NOT x = 4", "x = 5 AND name = 'alice'", "x = 9 OR name = 'alice'",
		"TRUE", "NOT FALSE",
	}
	for _, src := range truths {
		if v := evalStr(t, src, env); !Equal(v, Bool(true)) {
			t.Errorf("%q = %s, want TRUE", src, v)
		}
	}
	falsities := []string{"x = 4", "x IN (2, 4)", "name LIKE 'z%'", "x BETWEEN 6 AND 9"}
	for _, src := range falsities {
		if v := evalStr(t, src, env); !Equal(v, Bool(false)) {
			t.Errorf("%q = %s, want FALSE", src, v)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	env := MapEnv{"x": Null(), "y": Int(1)}
	// Comparisons with NULL are NULL.
	for _, src := range []string{"x = 1", "x != 1", "x < 1", "x + 1", "x IN (1, 2)"} {
		if v := evalStr(t, src, env); !v.IsNull() {
			t.Errorf("%q = %s, want NULL", src, v)
		}
	}
	// IS NULL / IS NOT NULL.
	if v := evalStr(t, "x IS NULL", env); !Equal(v, Bool(true)) {
		t.Errorf("IS NULL = %s", v)
	}
	if v := evalStr(t, "y IS NOT NULL", env); !Equal(v, Bool(true)) {
		t.Errorf("IS NOT NULL = %s", v)
	}
	// Three-valued logic shortcuts.
	if v := evalStr(t, "x = 1 AND FALSE", env); !Equal(v, Bool(false)) {
		t.Errorf("NULL AND FALSE = %s, want FALSE", v)
	}
	if v := evalStr(t, "FALSE AND x = 1", env); !Equal(v, Bool(false)) {
		t.Errorf("FALSE AND NULL = %s, want FALSE", v)
	}
	if v := evalStr(t, "x = 1 OR TRUE", env); !Equal(v, Bool(true)) {
		t.Errorf("NULL OR TRUE = %s, want TRUE", v)
	}
	if v := evalStr(t, "x = 1 AND TRUE", env); !v.IsNull() {
		t.Errorf("NULL AND TRUE = %s, want NULL", v)
	}
	if v := evalStr(t, "x = 1 OR FALSE", env); !v.IsNull() {
		t.Errorf("NULL OR FALSE = %s, want NULL", v)
	}
	// Truthy treats NULL as false.
	ok, err := Truthy(parseExpr(t, "x = 1"), env)
	if err != nil || ok {
		t.Errorf("Truthy(NULL) = %v, %v", ok, err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_", false},
		{"abc", "%%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "", false},
		{"aXbXc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestUnknownColumn(t *testing.T) {
	if _, err := parseExpr(t, "missing = 1").Eval(MapEnv{}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestLogicTypeErrors(t *testing.T) {
	env := MapEnv{"x": Int(1)}
	// Note TRUE OR x short-circuits without typing x, so it is not an error.
	for _, src := range []string{"x AND TRUE", "FALSE OR x", "NOT x"} {
		e := parseExpr(t, src)
		if _, err := e.Eval(env); err == nil {
			t.Errorf("%q should fail: int is not boolean", src)
		}
	}
}

func TestExprStrings(t *testing.T) {
	srcs := []string{
		"x = 1 AND y > 2",
		"a IS NOT NULL",
		"b IN (1, 2)",
		"NOT c LIKE 'x%'",
	}
	for _, src := range srcs {
		e := parseExpr(t, src)
		s := e.String()
		if s == "" || !strings.Contains(s, "(") {
			t.Errorf("String() of %q = %q", src, s)
		}
		// Round-trip: rendering must re-parse.
		if _, err := whereOf(s); err != nil {
			t.Errorf("re-parse of %q (from %q): %v", s, src, err)
		}
	}
}

// TestUndecidablePredicates pins the rule a disclosed-view WHERE relies
// on: a comparison its operands cannot decide (generalized text against a
// number, mixed kinds) is an error, and the error fails the whole
// predicate through AND, OR and NOT whenever the undecidable operand is
// evaluated. Raising it allocates nothing, so a scan can hit it on every
// row for free.
func TestUndecidablePredicates(t *testing.T) {
	env := MapEnv{"w": Text("*"), "n": Float(61.5), "b": Bool(true)}
	for _, src := range []string{
		"w >= 60", "w >= 60 AND w < 70", "n > 0 AND w >= 60", "w >= 60 AND n > 0",
		"w >= 60 OR n > 0", "n > 100 OR w >= 60", "NOT (w >= 60)", "NOT (n > 100 OR w < 70)",
		"b = 1", "n LIKE 'x%'", "w AND b", "n OR b",
	} {
		e := parseExpr(t, src)
		if ok, err := Truthy(e, env); err == nil || ok {
			t.Errorf("%q = %v, %v; want an error", src, ok, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = Truthy(e, env) }); allocs != 0 {
			t.Errorf("%q allocates %v times per evaluation, want 0", src, allocs)
		}
	}
	// A short circuit that never evaluates the undecidable side decides.
	for src, want := range map[string]bool{"n > 100 AND w >= 60": false, "n > 0 OR w >= 60": true} {
		if ok, err := Truthy(parseExpr(t, src), env); err != nil || ok != want {
			t.Errorf("%q = %v, %v; want %v", src, ok, err, want)
		}
	}
}
