package relational

import (
	"strings"
	"testing"
)

// inSubquery requires src to be refused as an IN (SELECT …) at the
// subquery's first SELECT after the outer one.
func inSubquery(t *testing.T, src string) {
	t.Helper()
	u := refused(t, src)
	outer := strings.Index(src, "SELECT") + 1
	want := outer + strings.Index(src[outer:], "SELECT")
	if u.Construct != "IN (SELECT …)" || u.Pos != want {
		t.Errorf("Parse(%q) refused %s at %d, want IN (SELECT …) at %d", src, u.Construct, u.Pos, want)
	}
}

func TestInSubquerySelect(t *testing.T) {
	inSubquery(t, `
		SELECT name FROM patients
		WHERE id IN (SELECT patient_id FROM visits WHERE reason = 'checkup')
		ORDER BY name`)
}

func TestNotInSubquery(t *testing.T) {
	inSubquery(t, `
		SELECT name FROM patients
		WHERE id NOT IN (SELECT patient_id FROM visits)
		ORDER BY name`)
}

func TestInSubqueryEmptyResult(t *testing.T) {
	// A subquery is refused whatever it would match, while an IN over a
	// literal list still parses and evaluates per row.
	inSubquery(t, `SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits WHERE reason = 'nothing')`)
	sel := parseSelect(t, `SELECT name FROM patients WHERE id NOT IN (2, 3)`)
	if ok, err := Truthy(sel.Where, MapEnv{"id": Int(1)}); !ok || err != nil {
		t.Errorf("Truthy = %v, %v; want true", ok, err)
	}
}

func TestInSubqueryNestedAndAggregated(t *testing.T) {
	// The subquery is refused as a whole: its own grouping, ordering and
	// aggregates are never read.
	inSubquery(t, `
		SELECT name FROM patients
		WHERE city IN (
			SELECT city FROM patients GROUP BY city ORDER BY COUNT(*) DESC LIMIT 1
		)
		ORDER BY name`)
}

func TestInSubqueryErrors(t *testing.T) {
	// Multi-column subqueries, unknown tables and even an unterminated
	// subquery are refused at the subquery's SELECT.
	inSubquery(t, `SELECT name FROM patients WHERE id IN (SELECT id, name FROM patients)`)
	inSubquery(t, `SELECT name FROM patients WHERE id IN (SELECT x FROM nope)`)
	inSubquery(t, `SELECT name FROM patients WHERE id IN (SELECT id FROM visits`)
}
