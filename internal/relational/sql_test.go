package relational

import (
	"math"
	"strings"
	"testing"
)

// The SQL surface is a parser: SELECT (the full grammar the enforcing
// planner in internal/query classifies) and CREATE TABLE (the form
// snapshots store schemas in). These tests pin the statements the grammar
// produces; executing them is the planner's business.

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
	if sel.Limit != -1 || sel.Offset != 0 || sel.Distinct {
		t.Errorf("limit/offset/distinct = %d/%d/%v", sel.Limit, sel.Offset, sel.Distinct)
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
	sel := parseSelect(t, `
		SELECT p.name, v.reason
		FROM patients p JOIN visits v ON p.id = v.patient_id
		WHERE p.city = 'calgary'
		ORDER BY v.id`)
	if sel.From != (FromItem{Table: "patients", Alias: "p"}) {
		t.Errorf("from = %+v", sel.From)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Right != (FromItem{Table: "visits", Alias: "v"}) {
		t.Fatalf("joins = %+v", sel.Joins)
	}
	if sel.Joins[0].On.String() != "(p.id = v.patient_id)" {
		t.Errorf("on = %s", sel.Joins[0].On)
	}
	if got := joined(itemStrings(sel)); got != "p.name, v.reason" {
		t.Errorf("items = %q", got)
	}
	if sel.Where.String() != "(p.city = 'calgary')" || joined(orderStrings(sel)) != "v.id" {
		t.Errorf("where = %s, order = %v", sel.Where, orderStrings(sel))
	}
	// INNER JOIN spelling.
	sel = parseSelect(t, `SELECT p.name FROM patients p INNER JOIN visits v ON p.id = v.patient_id ORDER BY v.id`)
	if len(sel.Joins) != 1 {
		t.Errorf("inner join = %+v", sel.Joins)
	}
}

func TestJoinAmbiguousColumn(t *testing.T) {
	// The parser keeps a bare "id" distinct from the qualified ones; it is
	// the planner that resolves (or refuses) names against tables.
	sel := parseSelect(t, `SELECT id FROM patients p JOIN visits v ON p.id = v.patient_id`)
	if sel.Items[0].Expr != (ColRef{Name: "id"}) {
		t.Errorf("bare item = %#v", sel.Items[0].Expr)
	}
	on := sel.Joins[0].On.(Binary)
	if on.L != (ColRef{Name: "p.id"}) || on.R != (ColRef{Name: "v.patient_id"}) {
		t.Errorf("on = %#v", on)
	}
}

func TestAggregates(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(*), COUNT(weight), SUM(age), AVG(weight), MIN(age), MAX(age) FROM patients")
	want := []Agg{
		{Fn: AggCount, Star: true},
		{Fn: AggCount, Arg: ColRef{Name: "weight"}},
		{Fn: AggSum, Arg: ColRef{Name: "age"}},
		{Fn: AggAvg, Arg: ColRef{Name: "weight"}},
		{Fn: AggMin, Arg: ColRef{Name: "age"}},
		{Fn: AggMax, Arg: ColRef{Name: "age"}},
	}
	if len(sel.Items) != len(want) {
		t.Fatalf("items = %v", itemStrings(sel))
	}
	for i, w := range want {
		if sel.Items[i].Expr != w {
			t.Errorf("item %d = %#v, want %#v", i, sel.Items[i].Expr, w)
		}
	}
	if got := joined(itemStrings(sel)); got != "COUNT(*), COUNT(weight), SUM(age), AVG(weight), MIN(age), MAX(age)" {
		t.Errorf("rendered = %q", got)
	}
	// An aggregate name not followed by "(" is a plain column.
	sel = parseSelect(t, "SELECT count FROM patients")
	if sel.Items[0].Expr != (ColRef{Name: "count"}) {
		t.Errorf("bare count = %#v", sel.Items[0].Expr)
	}
}

func TestGroupByHaving(t *testing.T) {
	sel := parseSelect(t, `
		SELECT city, COUNT(*) AS n, AVG(age) AS mean_age
		FROM patients
		GROUP BY city
		HAVING COUNT(*) >= 2
		ORDER BY city`)
	if got := joined(itemStrings(sel)); got != "city, COUNT(*) AS n, AVG(age) AS mean_age" {
		t.Errorf("items = %q", got)
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0] != (ColRef{Name: "city"}) {
		t.Errorf("group by = %v", sel.GroupBy)
	}
	if sel.Having == nil || sel.Having.String() != "(COUNT(*) >= 2)" {
		t.Errorf("having = %v", sel.Having)
	}
	// HAVING parses without GROUP BY too; the planner refuses both.
	sel = parseSelect(t, "SELECT city FROM patients HAVING COUNT(*) > 1")
	if len(sel.GroupBy) != 0 || sel.Having == nil {
		t.Errorf("bare having: group by %v, having %v", sel.GroupBy, sel.Having)
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	// Aggregates only parse: no row-wise evaluation exists for them, over
	// any input.
	sel := parseSelect(t, "SELECT COUNT(*), SUM(age), MIN(age) FROM patients WHERE age > 999")
	for i, it := range sel.Items {
		if _, ok := it.Expr.(Agg); !ok {
			t.Fatalf("item %d = %#v, want an aggregate", i, it.Expr)
		}
		if _, err := it.Expr.Eval(MapEnv{"age": Null()}); err == nil {
			t.Errorf("%s evaluated per row", it.Expr)
		}
	}
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
	// unknown tables or columns, or mixing * with an aggregate, parses,
	// and internal/query refuses it. Statements outside the grammar fail
	// here already.
	resolvedLater := []string{
		"SELECT * FROM nope",
		"SELECT nope FROM patients",
		"SELECT * FROM patients JOIN nope ON 1 = 1",
		"SELECT *, COUNT(*) FROM patients",
	}
	for _, s := range resolvedLater {
		parseSelect(t, s)
	}
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
	sel := parseSelect(t, "SELECT city, COUNT(*) AS n FROM patients GROUP BY city ORDER BY n DESC")
	if got := joined(orderStrings(sel)); got != "n DESC" {
		t.Errorf("order by = %q", got)
	}
	if sel.Items[1].Alias != "n" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
}

func TestGroupByExpression(t *testing.T) {
	sel := parseSelect(t, "SELECT age / 10 AS decade, COUNT(*) AS n FROM patients GROUP BY age / 10 ORDER BY decade")
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].String() != "(age / 10)" {
		t.Fatalf("group by = %v", sel.GroupBy)
	}
	// The grouping expression is ordinary arithmetic: integer division.
	v, err := sel.GroupBy[0].Eval(MapEnv{"age": Int(34)})
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
