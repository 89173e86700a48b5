package relational

import (
	"testing"
)

// inSubquery parses src and returns its WHERE clause as an IN (SELECT …).
func inSubquery(t *testing.T, src string) InSubquery {
	t.Helper()
	sel := parseSelect(t, src)
	in, ok := sel.Where.(InSubquery)
	if !ok {
		t.Fatalf("where = %#v, want an IN (SELECT …)", sel.Where)
	}
	return in
}

func TestInSubquerySelect(t *testing.T) {
	in := inSubquery(t, `
		SELECT name FROM patients
		WHERE id IN (SELECT patient_id FROM visits WHERE reason = 'checkup')
		ORDER BY name`)
	if in.Not || in.X != (ColRef{Name: "id"}) {
		t.Errorf("in = %#v", in)
	}
	if joined(itemStrings(in.Query)) != "patient_id" || in.Query.From.Table != "visits" ||
		in.Query.Where.String() != "(reason = 'checkup')" {
		t.Errorf("subquery = %+v", in.Query)
	}
}

func TestNotInSubquery(t *testing.T) {
	in := inSubquery(t, `
		SELECT name FROM patients
		WHERE id NOT IN (SELECT patient_id FROM visits)
		ORDER BY name`)
	if !in.Not || in.Query.Where != nil {
		t.Errorf("in = %#v", in)
	}
	if in.String() != "(id NOT IN (SELECT …))" {
		t.Errorf("rendered = %q", in.String())
	}
}

func TestInSubqueryEmptyResult(t *testing.T) {
	// A subquery never evaluates row-wise, whatever it would match.
	in := inSubquery(t, `SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits WHERE reason = 'nothing')`)
	if _, err := in.Eval(MapEnv{"id": Int(1)}); err == nil {
		t.Error("IN (SELECT …) evaluated per row")
	}
	if ok, err := Truthy(in, MapEnv{"id": Int(1)}); ok || err == nil {
		t.Errorf("Truthy = %v, %v; want false with an error", ok, err)
	}
}

func TestInSubqueryNestedAndAggregated(t *testing.T) {
	// Subquery with its own grouping, ordering and limit.
	in := inSubquery(t, `
		SELECT name FROM patients
		WHERE city IN (
			SELECT city FROM patients GROUP BY city ORDER BY COUNT(*) DESC LIMIT 1
		)
		ORDER BY name`)
	q := in.Query
	if len(q.GroupBy) != 1 || joined(orderStrings(q)) != "COUNT(*) DESC" || q.Limit != 1 {
		t.Errorf("subquery = %+v", q)
	}
}

func TestInSubqueryErrors(t *testing.T) {
	// Multi-column subqueries and unknown tables parse — the planner
	// refuses every subquery — but an unterminated one does not.
	if in := inSubquery(t, `SELECT name FROM patients WHERE id IN (SELECT id, name FROM patients)`); len(in.Query.Items) != 2 {
		t.Errorf("multi-column subquery items = %v", itemStrings(in.Query))
	}
	if in := inSubquery(t, `SELECT name FROM patients WHERE id IN (SELECT x FROM nope)`); in.Query.From.Table != "nope" {
		t.Errorf("subquery table = %q", in.Query.From.Table)
	}
	if _, err := Parse(`SELECT name FROM patients WHERE id IN (SELECT id FROM visits`); err == nil {
		t.Error("unterminated subquery should fail")
	}
}
