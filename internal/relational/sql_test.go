package relational

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// The SQL surface is a parser: the single-table SELECT the enforcing
// planner in internal/query can check per datum, and CREATE TABLE (the
// form snapshots store schemas in). These tests pin the statements the
// grammar produces and the constructs it refuses at their keyword;
// executing statements is the planner's business.

// refused parses src and returns the *UnsupportedError it must fail with.
func refused(t *testing.T, src string) *UnsupportedError {
	t.Helper()
	_, err := Parse(src)
	var u *UnsupportedError
	if !errors.As(err, &u) {
		t.Fatalf("Parse(%q) = %v, want an *UnsupportedError", src, err)
	}
	return u
}

// refusedAt requires src to be refused as construct at the first offset
// of keyword.
func refusedAt(t *testing.T, src, construct, keyword string) {
	t.Helper()
	u := refused(t, src)
	if u.Construct != construct || u.Pos != strings.Index(src, keyword) {
		t.Errorf("Parse(%q) refused %s at %d, want %s at %d (%q)",
			src, u.Construct, u.Pos, construct, strings.Index(src, keyword), keyword)
	}
}

// parseSelect parses src, failing the test unless it is a SELECT.
func parseSelect(t *testing.T, src string) SelectStmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := st.(SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want SelectStmt", src, st)
	}
	return sel
}

// whereOf parses src as the WHERE clause of a SELECT — the expression
// grammar's entry point — and returns the expression.
func whereOf(src string) (Expr, error) {
	st, err := Parse("SELECT * FROM t WHERE " + src)
	if err != nil {
		return nil, err
	}
	return st.(SelectStmt).Where, nil
}

// parseExpr is whereOf that fails the test on error.
func parseExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := whereOf(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

// itemStrings renders a SELECT's projection items.
func itemStrings(sel SelectStmt) []string {
	out := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		switch {
		case it.Star:
			out[i] = "*"
		case it.Alias != "":
			out[i] = it.Expr.String() + " AS " + it.Alias
		default:
			out[i] = it.Expr.String()
		}
	}
	return out
}

// orderStrings renders a SELECT's ORDER BY keys.
func orderStrings(sel SelectStmt) []string {
	out := make([]string, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		out[i] = o.Expr.String()
		if o.Desc {
			out[i] += " DESC"
		}
	}
	return out
}

func joined(ss []string) string { return strings.Join(ss, ", ") }

func TestSelectBasic(t *testing.T) {
	sel := parseSelect(t, "SELECT name, age FROM patients WHERE age > 30 ORDER BY age DESC, name")
	if got := joined(itemStrings(sel)); got != "name, age" {
		t.Errorf("items = %q", got)
	}
	if sel.From != (FromItem{Table: "patients", Alias: "patients"}) {
		t.Errorf("from = %+v", sel.From)
	}
	if sel.Where.String() != "(age > 30)" {
		t.Errorf("where = %s", sel.Where)
	}
	if got := joined(orderStrings(sel)); got != "age DESC, name" {
		t.Errorf("order by = %q", got)
	}
	if sel.Limit != -1 || sel.Offset != 0 {
		t.Errorf("limit/offset = %d/%d", sel.Limit, sel.Offset)
	}
}

func TestSelectStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM patients WHERE id = 3")
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Fatalf("items = %+v", sel.Items)
	}
	if sel.Where.String() != "(id = 3)" {
		t.Errorf("where = %s", sel.Where)
	}
}

func TestSelectExpressionsAndAliases(t *testing.T) {
	sel := parseSelect(t, "SELECT name, weight / 2.2 AS weight_lbs_ish FROM patients WHERE weight IS NOT NULL ORDER BY name LIMIT 1")
	if got := joined(itemStrings(sel)); got != "name, (weight / 2.2) AS weight_lbs_ish" {
		t.Errorf("items = %q", got)
	}
	if sel.Where.String() != "(weight IS NOT NULL)" || sel.Limit != 1 {
		t.Errorf("where = %s, limit = %d", sel.Where, sel.Limit)
	}
	v, err := sel.Items[1].Expr.Eval(MapEnv{"weight": Float(61.5)})
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f < 27 || f > 29 {
		t.Errorf("computed value = %v", v)
	}
}

func TestSelectLimitOffset(t *testing.T) {
	sel := parseSelect(t, "SELECT id FROM patients ORDER BY id LIMIT 2 OFFSET 2")
	if sel.Limit != 2 || sel.Offset != 2 {
		t.Errorf("limit/offset = %d/%d", sel.Limit, sel.Offset)
	}
	// Offset without a limit.
	sel = parseSelect(t, "SELECT id FROM patients ORDER BY id OFFSET 99")
	if sel.Limit != -1 || sel.Offset != 99 {
		t.Errorf("offset-only limit/offset = %d/%d", sel.Limit, sel.Offset)
	}
	// The largest limit parses; executors must window without computing
	// offset+limit.
	sel = parseSelect(t, "SELECT id FROM patients LIMIT 9223372036854775807 OFFSET 1")
	if sel.Limit != math.MaxInt64 || sel.Offset != 1 {
		t.Errorf("max limit/offset = %d/%d", sel.Limit, sel.Offset)
	}
	for _, bad := range []string{
		"SELECT id FROM patients LIMIT 9223372036854775808",
		"SELECT id FROM patients LIMIT 1.5",
		"SELECT id FROM patients OFFSET -1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}

func TestJoin(t *testing.T) {
	// Joins are refused at their keyword, in either spelling, before the
	// joined table or its ON clause is read.
	refusedAt(t, `
		SELECT p.name, v.reason
		FROM patients p JOIN visits v ON p.id = v.patient_id
		WHERE p.city = 'calgary'
		ORDER BY v.id`, "JOIN", "JOIN")
	refusedAt(t, `SELECT p.name FROM patients p INNER JOIN visits v ON p.id = v.patient_id ORDER BY v.id`, "JOIN", "INNER")
	refusedAt(t, `SELECT name FROM patients join visits`, "JOIN", "join")
}

func TestJoinAmbiguousColumn(t *testing.T) {
	// A join never gets as far as its ON clause, so a bare column that
	// two joined tables would share is never resolved against both; in
	// the single-table SELECT that remains, the parser keeps a bare "id"
	// distinct from a qualified one and the planner resolves both.
	refusedAt(t, `SELECT id FROM patients p JOIN visits v ON p.id = v.patient_id`, "JOIN", "JOIN")
	sel := parseSelect(t, `SELECT id, p.id FROM patients p`)
	if sel.Items[0].Expr != (ColRef{Name: "id"}) || sel.Items[1].Expr != (ColRef{Name: "p.id"}) {
		t.Errorf("items = %#v", sel.Items)
	}
}

func TestAggregates(t *testing.T) {
	// Each aggregate is refused at its call, named by its function, in
	// any letter case.
	for _, tc := range []struct{ src, fn string }{
		{"SELECT COUNT(*) FROM patients", "COUNT"},
		{"SELECT count(weight) FROM patients", "COUNT"},
		{"SELECT name, SUM(age) FROM patients", "SUM"},
		{"SELECT Avg(weight) FROM patients", "AVG"},
		{"SELECT MIN(age) FROM patients", "MIN"},
		{"SELECT MAX(age) FROM patients", "MAX"},
	} {
		u := refused(t, tc.src)
		if u.Construct != tc.fn || u.Pos != strings.Index(strings.ToUpper(tc.src), tc.fn) {
			t.Errorf("Parse(%q) refused %s at %d, want %s", tc.src, u.Construct, u.Pos, tc.fn)
		}
	}
	// An aggregate name not followed by "(" is a plain column.
	sel := parseSelect(t, "SELECT count FROM patients")
	if sel.Items[0].Expr != (ColRef{Name: "count"}) {
		t.Errorf("bare count = %#v", sel.Items[0].Expr)
	}
}

func TestGroupByHaving(t *testing.T) {
	// The first unsupported keyword in reading order is the one named.
	refusedAt(t, `
		SELECT city, COUNT(*) AS n, AVG(age) AS mean_age
		FROM patients
		GROUP BY city
		HAVING COUNT(*) >= 2
		ORDER BY city`, "COUNT", "COUNT")
	refusedAt(t, `SELECT city FROM patients WHERE age > 3 GROUP BY city HAVING city > 'a'`, "GROUP BY", "GROUP")
	// HAVING without GROUP BY is refused too, at HAVING.
	refusedAt(t, "SELECT city FROM patients HAVING city > 'a'", "HAVING", "HAVING")
}

func TestAggregateOverEmptyInput(t *testing.T) {
	// Aggregates are refused whatever the WHERE clause would match, and in
	// WHERE as in the projection.
	refusedAt(t, "SELECT COUNT(*), SUM(age), MIN(age) FROM patients WHERE age > 999", "COUNT", "COUNT")
	refusedAt(t, "SELECT name FROM patients WHERE age > 999 AND age < MAX(age)", "MAX", "MAX")
}

func TestUpdateDelete(t *testing.T) {
	// The grammar has no UPDATE or DELETE: the store changes rows through
	// its own API, never through SQL.
	for _, src := range []string{
		"UPDATE patients SET age = age + 1 WHERE city = 'calgary'",
		"DELETE FROM patients WHERE city = 'edmonton'",
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "expected SELECT or CREATE TABLE") {
			t.Errorf("Parse(%q) = %v, want a statement-kind error", src, err)
		}
	}
}

func TestDDL(t *testing.T) {
	st, err := Parse("CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL, c float)")
	if err != nil {
		t.Fatal(err)
	}
	create, ok := st.(CreateTableStmt)
	if !ok || create.Name != "t" {
		t.Fatalf("Parse = %#v", st)
	}
	want := []Column{
		{Name: "a", Type: TypeInt, PrimaryKey: true},
		{Name: "b", Type: TypeText, NotNull: true},
		{Name: "c", Type: TypeFloat},
	}
	if len(create.Cols) != len(want) {
		t.Fatalf("cols = %+v", create.Cols)
	}
	for i := range want {
		if create.Cols[i] != want[i] {
			t.Errorf("col %d = %+v, want %+v", i, create.Cols[i], want[i])
		}
	}
	// A schema's own rendering round-trips: this is how snapshots store it.
	schema, err := NewSchema(create.Cols)
	if err != nil {
		t.Fatal(err)
	}
	st, err = Parse("CREATE TABLE t (" + schema.String() + ")")
	if err != nil {
		t.Fatalf("schema rendering does not re-parse: %v", err)
	}
	if again, _ := NewSchema(st.(CreateTableStmt).Cols); again.String() != schema.String() {
		t.Errorf("round trip = %q, want %q", again, schema)
	}
	for _, bad := range []string{
		"CREATE TABLE IF NOT EXISTS t (a INT)",
		"DROP TABLE t",
		"DROP TABLE IF EXISTS t",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM patients",
		"SELECT FROM patients",
		"SELECT * FROM",
		"SELECT * FROM patients WHERE",
		"SELECT * FROM patients LIMIT -1",
		"INSERT INTO patients",
		"CREATE TABLE x (a BLOB)",
		"SELECT * FROM patients; SELECT 1",
		"SELECT 'unterminated FROM patients",
		"SELECT * FROM patients WHERE a ~ 1",
		"UPDATE patients",
		"DELETE patients",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("%q should fail to parse", s)
		}
	}
}

func TestExecErrors(t *testing.T) {
	// Names are resolved by the planner, not the parser: a SELECT over
	// unknown tables or columns parses, and internal/query refuses it. A
	// join or an aggregate is refused here whatever it names, and
	// statements outside the grammar fail here already.
	resolvedLater := []string{
		"SELECT * FROM nope",
		"SELECT nope FROM patients",
	}
	for _, s := range resolvedLater {
		parseSelect(t, s)
	}
	refusedAt(t, "SELECT * FROM patients JOIN nope ON 1 = 1", "JOIN", "JOIN")
	refusedAt(t, "SELECT *, COUNT(*) FROM patients", "COUNT", "COUNT")
	outsideGrammar := []string{
		"UPDATE nope SET a = 1",
		"UPDATE patients SET nope = 1",
		"DELETE FROM nope",
		"INSERT INTO nope VALUES (1)",
	}
	for _, s := range outsideGrammar {
		if _, err := Parse(s); err == nil {
			t.Errorf("%q should fail to parse", s)
		}
	}
}

func TestQualifiedColumnsSingleTable(t *testing.T) {
	sel := parseSelect(t, "SELECT patients.name FROM patients WHERE patients.id = 2")
	if sel.Items[0].Expr != (ColRef{Name: "patients.name"}) || sel.Where.String() != "(patients.id = 2)" {
		t.Errorf("table-qualified = %v, %s", itemStrings(sel), sel.Where)
	}
	// Alias-qualified.
	sel = parseSelect(t, "SELECT p.name FROM patients AS p WHERE p.id = 2")
	if sel.From != (FromItem{Table: "patients", Alias: "p"}) || sel.Items[0].Expr != (ColRef{Name: "p.name"}) {
		t.Errorf("alias-qualified = %+v, %v", sel.From, itemStrings(sel))
	}
}

func TestOrderByAlias(t *testing.T) {
	// ORDER BY may name a projection alias; resolving it is the planner's
	// business.
	sel := parseSelect(t, "SELECT city AS c, name FROM patients ORDER BY c DESC")
	if got := joined(orderStrings(sel)); got != "c DESC" {
		t.Errorf("order by = %q", got)
	}
	if sel.Items[0].Alias != "c" {
		t.Errorf("alias = %q", sel.Items[0].Alias)
	}
}

func TestGroupByExpression(t *testing.T) {
	// Grouping by an expression is refused at GROUP like any grouping…
	refusedAt(t, "SELECT age / 10 AS decade FROM patients GROUP BY age / 10 ORDER BY decade", "GROUP BY", "GROUP")
	// …while the same expression orders rows: ordinary integer division.
	sel := parseSelect(t, "SELECT age FROM patients ORDER BY age / 10")
	if len(sel.OrderBy) != 1 || sel.OrderBy[0].Expr.String() != "(age / 10)" {
		t.Fatalf("order by = %v", orderStrings(sel))
	}
	v, err := sel.OrderBy[0].Expr.Eval(MapEnv{"age": Int(34)})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := v.AsInt(); d != 3 {
		t.Errorf("decade of 34 = %v", v)
	}
}

func TestLineComments(t *testing.T) {
	sel := parseSelect(t, "SELECT id -- trailing comment\nFROM patients -- another\nWHERE id = 1")
	if joined(itemStrings(sel)) != "id" || sel.From.Table != "patients" || sel.Where.String() != "(id = 1)" {
		t.Errorf("parsed = %v from %s where %s", itemStrings(sel), sel.From.Table, sel.Where)
	}
}
