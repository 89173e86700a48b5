package relational

import (
	"strings"
	"testing"
)

// Additional edge-case coverage: aggregate nesting, lexer corners, parser
// backtracking and statement marker types.

func TestGroupedCompositeExpressions(t *testing.T) {
	// Aggregates nest inside arithmetic, IS NULL, IN and unary minus.
	sel := parseSelect(t, `
		SELECT city,
		       SUM(age) / COUNT(*) AS mean_age,
		       MAX(weight) IS NULL AS no_weights,
		       COUNT(*) IN (2, 3) AS small
		FROM patients GROUP BY city ORDER BY city`)
	want := "city, (SUM(age) / COUNT(*)) AS mean_age, (MAX(weight) IS NULL) AS no_weights, (COUNT(*) IN (2, 3)) AS small"
	if got := joined(itemStrings(sel)); got != want {
		t.Errorf("items = %q\nwant    %q", got, want)
	}
	sel = parseSelect(t, "SELECT -COUNT(*) AS neg FROM patients")
	if got := joined(itemStrings(sel)); got != "(-COUNT(*)) AS neg" {
		t.Errorf("neg count = %q", got)
	}
}

func TestGroupedHavingWithAggExpression(t *testing.T) {
	sel := parseSelect(t, `
		SELECT city FROM patients
		GROUP BY city
		HAVING NOT (COUNT(*) < 3)
		ORDER BY city`)
	if sel.Having == nil || sel.Having.String() != "(NOT (COUNT(*) < 3))" {
		t.Errorf("having = %v", sel.Having)
	}
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
	a := Agg{Fn: AggSum, Arg: ColRef{Name: "x"}}
	if a.String() != "SUM(x)" {
		t.Errorf("Agg.String = %q", a.String())
	}
	star := Agg{Fn: AggCount, Star: true}
	if star.String() != "COUNT(*)" {
		t.Errorf("star = %q", star.String())
	}
	if _, err := star.Eval(MapEnv{}); err == nil {
		t.Error("raw Agg.Eval must error")
	}
	q := InSubquery{X: ColRef{Name: "id"}}
	if !strings.Contains(q.String(), "IN (SELECT") {
		t.Errorf("InSubquery.String = %q", q.String())
	}
	qn := InSubquery{Not: true, X: ColRef{Name: "id"}}
	if !strings.Contains(qn.String(), "NOT IN") {
		t.Errorf("not-in String = %q", qn.String())
	}
	if _, err := q.Eval(MapEnv{}); err == nil {
		t.Error("raw InSubquery.Eval must error")
	}
	// Kind and BinOp string forms.
	if Kind(99).String() == "" || BinOp(99).String() == "" || ColType(99).String() == "" {
		t.Error("fallback String forms must be non-empty")
	}
	if AggFn(99).String() == "" {
		t.Error("AggFn fallback String must be non-empty")
	}
}

func TestInnerWithoutJoinBacktracks(t *testing.T) {
	// INNER not followed by JOIN: the parser backtracks and the statement
	// fails cleanly ("inner" is reserved and cannot be an alias).
	if _, err := Parse("SELECT name FROM patients INNER WHERE id = 1"); err == nil {
		t.Error("INNER without JOIN should fail to parse")
	}
	// The full INNER JOIN spelling still works.
	sel := parseSelect(t, "SELECT p.name FROM patients p INNER JOIN visits v ON p.id = v.patient_id WHERE v.id = 10")
	if len(sel.Joins) != 1 || sel.Where.String() != "(v.id = 10)" {
		t.Errorf("joins = %+v, where = %s", sel.Joins, sel.Where)
	}
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
	// Nested IN subquery inside another subquery's WHERE.
	sel := parseSelect(t, `
		SELECT name FROM patients
		WHERE id IN (
			SELECT patient_id FROM visits
			WHERE patient_id IN (SELECT id FROM patients WHERE city = 'calgary')
		)
		ORDER BY name`)
	outer, ok := sel.Where.(InSubquery)
	if !ok || outer.X != (ColRef{Name: "id"}) || outer.Query.From.Table != "visits" {
		t.Fatalf("outer = %#v", sel.Where)
	}
	inner, ok := outer.Query.Where.(InSubquery)
	if !ok || inner.Query.From.Table != "patients" || inner.Query.Where.String() != "(city = 'calgary')" {
		t.Fatalf("inner = %#v", outer.Query.Where)
	}
	if joined(orderStrings(sel)) != "name" {
		t.Errorf("outer order by = %v", orderStrings(sel))
	}
}
