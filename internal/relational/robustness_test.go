package relational

import (
	"testing"
	"testing/quick"
)

// TestParseNeverPanics feeds arbitrary byte soup to the SQL parser: it may
// reject, it must never panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseNeverPanicsOnSQLishInput biases the fuzz toward SQL-shaped
// fragments, which reach deeper parser states than raw bytes.
func TestParseNeverPanicsOnSQLishInput(t *testing.T) {
	fragments := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "OFFSET",
		"INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE",
		"TABLE", "DROP", "JOIN", "ON", "AND", "OR", "NOT", "IN", "BETWEEN",
		"LIKE", "IS", "NULL", "COUNT", "SUM", "(", ")", ",", "*", "=", "<",
		">", "+", "-", "/", "%", "'text'", "42", "3.14", "t", "x", "y", ".",
		"AS", "DISTINCT", "HAVING", "ASC", "DESC", ";",
	}
	f := func(picks []uint8) (ok bool) {
		var src string
		for i, p := range picks {
			if i >= 40 {
				break
			}
			src += fragments[int(p)%len(fragments)] + " "
		}
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestExprEvalNeverPanics checks that any parsed expression evaluates (or
// errors) without panicking on arbitrary environments.
func TestExprEvalNeverPanics(t *testing.T) {
	exprs := []string{
		"a + b * c", "a = b AND c < d", "x IN (1, 2, 'three')",
		"NOT flag OR y IS NULL", "name LIKE 'a%'", "a BETWEEN 1 AND c",
		"-x / (y - y)", "a % b",
	}
	f := func(ai, bi int8, txt string, flag bool) (ok bool) {
		env := MapEnv{
			"a": Int(int64(ai)), "b": Int(int64(bi)), "c": Float(1.5),
			"d": Null(), "x": Int(2), "y": Null(),
			"name": Text(txt), "flag": Bool(flag),
		}
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic: %v", r)
				ok = false
			}
		}()
		for _, src := range exprs {
			e, err := whereOf(src)
			if err != nil {
				t.Fatalf("fixture %q failed to parse: %v", src, err)
			}
			_, _ = e.Eval(env)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
