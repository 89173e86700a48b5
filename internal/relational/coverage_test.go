package relational

import (
	"errors"
	"strings"
	"testing"
)

// Additional edge-case coverage: refusals nested in expressions, lexer
// corners, parser lookahead and statement marker types.

func TestGroupedCompositeExpressions(t *testing.T) {
	// Aggregates nested inside arithmetic, IS NULL, IN and unary minus are
	// refused at the innermost call the parser reaches first.
	refusedAt(t, "SELECT city, SUM(age) / COUNT(*) AS mean_age FROM patients", "SUM", "SUM")
	refusedAt(t, "SELECT city, age / COUNT(*) AS mean_age FROM patients", "COUNT", "COUNT")
	refusedAt(t, "SELECT MAX(weight) IS NULL AS no_weights FROM patients", "MAX", "MAX")
	refusedAt(t, "SELECT city FROM patients WHERE 2 IN (1, COUNT(*))", "COUNT", "COUNT")
	refusedAt(t, "SELECT -COUNT(*) AS neg FROM patients", "COUNT", "COUNT")
}

func TestGroupedHavingWithAggExpression(t *testing.T) {
	refusedAt(t, `
		SELECT city FROM patients
		GROUP BY city
		HAVING NOT (COUNT(*) < 3)
		ORDER BY city`, "GROUP BY", "GROUP")
	refusedAt(t, "SELECT city FROM patients HAVING NOT (COUNT(*) < 3)", "HAVING", "HAVING")
}

func TestOrderByNullsPlacement(t *testing.T) {
	// Sort direction is per key; where NULLs land is the executor's total
	// order (internal/query), not the grammar's.
	asc := parseSelect(t, "SELECT name FROM patients ORDER BY weight, name")
	if got := joined(orderStrings(asc)); got != "weight, name" {
		t.Errorf("ascending keys = %q", got)
	}
	desc := parseSelect(t, "SELECT name FROM patients ORDER BY weight DESC, name ASC")
	if got := joined(orderStrings(desc)); got != "weight DESC, name" {
		t.Errorf("descending keys = %q", got)
	}
}

func TestLexerNumberForms(t *testing.T) {
	sel := parseSelect(t, "SELECT 1e3, 2.5E2, 1.5e+2, 12e-1 FROM patients LIMIT 1")
	want := []float64{1000, 250, 150, 1.2}
	for i, w := range want {
		lit, ok := sel.Items[i].Expr.(Literal)
		if f, _ := lit.Val.AsFloat(); !ok || f != w {
			t.Errorf("col %d = %v, want %g", i, sel.Items[i].Expr, w)
		}
	}
	// Malformed number.
	if _, err := Parse("SELECT 12abc FROM patients"); err == nil {
		t.Error("malformed number should fail")
	}
}

func TestStatementMarkers(t *testing.T) {
	// The stmt() marker methods exist to seal the Statement interface; call
	// them for completeness.
	for _, st := range []Statement{CreateTableStmt{}, SelectStmt{}} {
		st.stmt()
	}
}

func TestAggAndSubqueryStringForms(t *testing.T) {
	// A refusal names the construct and where it starts.
	err := error(&UnsupportedError{Construct: "IN (SELECT …)", Pos: 31})
	if err.Error() != "relational: IN (SELECT …) at offset 31 is not supported" {
		t.Errorf("UnsupportedError = %q", err)
	}
	if u := refused(t, "SELECT SUM(x) FROM t"); !strings.Contains(u.Error(), "SUM at offset 7") {
		t.Errorf("aggregate refusal = %q", u)
	}
	// Kind, BinOp and ColType fallback string forms.
	if Kind(99).String() == "" || BinOp(99).String() == "" || ColType(99).String() == "" {
		t.Error("fallback String forms must be non-empty")
	}
}

func TestInnerWithoutJoinBacktracks(t *testing.T) {
	// INNER not followed by JOIN is no join: the statement fails as plain
	// trailing input ("inner" is reserved and cannot be an alias).
	_, err := Parse("SELECT name FROM patients INNER WHERE id = 1")
	var u *UnsupportedError
	if err == nil || errors.As(err, &u) {
		t.Errorf("INNER without JOIN = %v, want a parse error", err)
	}
	// The full INNER JOIN spelling is refused as a join.
	refusedAt(t, "SELECT p.name FROM patients p INNER JOIN visits v ON p.id = v.patient_id WHERE v.id = 10", "JOIN", "INNER")
}

func TestParseExprTrailingInput(t *testing.T) {
	if _, err := whereOf("1 + 2 extra"); err == nil {
		t.Error("trailing input should fail")
	}
	if _, err := whereOf("1 +"); err == nil {
		t.Error("dangling operator should fail")
	}
}

func TestSubqueryInsideInListAndNesting(t *testing.T) {
	// A subquery nested in another is refused at the outer one.
	inSubquery(t, `
		SELECT name FROM patients
		WHERE id IN (
			SELECT patient_id FROM visits
			WHERE patient_id IN (SELECT id FROM patients WHERE city = 'calgary')
		)
		ORDER BY name`)
	// A SELECT inside a literal IN list is no subquery form at all.
	if _, err := Parse("SELECT name FROM patients WHERE id IN (1, (SELECT id FROM t))"); err == nil {
		t.Error("SELECT inside an IN list should fail to parse")
	}
}
