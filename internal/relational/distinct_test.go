package relational

import (
	"testing"
)

func TestSelectDistinct(t *testing.T) {
	sel := parseSelect(t, "SELECT DISTINCT city FROM patients ORDER BY city")
	if !sel.Distinct || joined(itemStrings(sel)) != "city" {
		t.Errorf("distinct = %v, items = %v", sel.Distinct, itemStrings(sel))
	}
	// Multi-column distinct.
	sel = parseSelect(t, "SELECT DISTINCT city, age FROM patients ORDER BY city, age")
	if !sel.Distinct || joined(itemStrings(sel)) != "city, age" {
		t.Errorf("distinct = %v, items = %v", sel.Distinct, itemStrings(sel))
	}
	// Non-distinct comparison.
	if sel = parseSelect(t, "SELECT city FROM patients"); sel.Distinct {
		t.Error("plain SELECT parsed as DISTINCT")
	}
}

func TestSelectDistinctWithAggregation(t *testing.T) {
	sel := parseSelect(t, "SELECT DISTINCT city, COUNT(*) AS n FROM patients GROUP BY city ORDER BY city")
	if !sel.Distinct || len(sel.GroupBy) != 1 || joined(itemStrings(sel)) != "city, COUNT(*) AS n" {
		t.Errorf("parsed = distinct %v, group by %v, items %v", sel.Distinct, sel.GroupBy, itemStrings(sel))
	}
}

// patientsTable builds the clinic fixture as a stored table, for the
// equality-lookup tests the planner's index shortcut relies on.
func patientsTable(t *testing.T) *Table {
	t.Helper()
	schema, err := NewSchema([]Column{
		{Name: "id", Type: TypeInt, PrimaryKey: true},
		{Name: "name", Type: TypeText, NotNull: true},
		{Name: "age", Type: TypeInt},
		{Name: "weight", Type: TypeFloat},
		{Name: "city", Type: TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable("patients", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{
		{Int(1), Text("alice"), Int(34), Float(61.5), Text("calgary")},
		{Int(2), Text("bob"), Int(51), Float(92), Text("calgary")},
		{Int(3), Text("carol"), Int(28), Float(55), Text("edmonton")},
		{Int(4), Text("dave"), Int(45), Null(), Text("calgary")},
		{Int(5), Text("erin"), Int(34), Float(70.5), Text("edmonton")},
	} {
		if _, err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestIndexAssistedEquality(t *testing.T) {
	tab := patientsTable(t)
	scan, err := tab.Lookup("city", Text("calgary"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}
	// The index path and the scan path must agree.
	indexed, err := tab.Lookup("city", Text("calgary"))
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != 3 || len(scan) != 3 {
		t.Fatalf("indexed %v, scanned %v", indexed, scan)
	}
	for i := range indexed {
		if indexed[i] != scan[i] {
			t.Errorf("indexed %v != scanned %v", indexed, scan)
		}
	}
	// Column names resolve case-insensitively.
	if ids, _ := tab.Lookup("CITY", Text("edmonton")); len(ids) != 2 {
		t.Errorf("edmonton ids = %v", ids)
	}
	// Primary-key equality uses the pk index.
	ids, err := tab.Lookup("id", Int(4))
	if err != nil || len(ids) != 1 {
		t.Fatalf("pk ids = %v (%v)", ids, err)
	}
	if row, _ := tab.Get(ids[0]); row[1].Display() != "dave" {
		t.Errorf("pk row = %v", row)
	}
	// No match via index.
	if ids, _ := tab.Lookup("city", Text("nowhere")); len(ids) != 0 {
		t.Errorf("ids = %v", ids)
	}
}

func TestIndexPathSkippedWithJoins(t *testing.T) {
	// Without an index the lookup falls back to a scan and still answers;
	// HasIndex tells the planner which columns the shortcut may use.
	tab := patientsTable(t)
	if err := tab.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}
	if !tab.HasIndex("city") || !tab.HasIndex("id") || tab.HasIndex("age") || tab.HasIndex("nope") {
		t.Errorf("HasIndex city/id/age/nope = %v/%v/%v/%v",
			tab.HasIndex("city"), tab.HasIndex("id"), tab.HasIndex("age"), tab.HasIndex("nope"))
	}
	if ids, err := tab.Lookup("age", Int(34)); err != nil || len(ids) != 2 {
		t.Errorf("unindexed age=34 = %v (%v)", ids, err)
	}
	if _, err := tab.Lookup("nope", Int(1)); err == nil {
		t.Error("lookup on a missing column should fail")
	}
}

func TestEqIndexLookupHelper(t *testing.T) {
	tab := patientsTable(t)
	if err := tab.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}
	// Equality is kind-aware: a text probe never matches an int column, and
	// under SQL semantics a NULL probe matches nothing, not even dave's
	// NULL weight.
	if ids, _ := tab.Lookup("age", Text("34")); len(ids) != 0 {
		t.Errorf("text probe on int column = %v", ids)
	}
	if ids, _ := tab.Lookup("weight", Null()); len(ids) != 0 {
		t.Errorf("NULL probe ids = %v, want none", ids)
	}
	// Index maintenance: an updated cell moves between index buckets.
	ids, _ := tab.Lookup("city", Text("edmonton"))
	row, _ := tab.Get(ids[0])
	row[4] = Text("calgary")
	if err := tab.Update(ids[0], row); err != nil {
		t.Fatal(err)
	}
	if got, _ := tab.Lookup("city", Text("calgary")); len(got) != 4 {
		t.Errorf("calgary after update = %v", got)
	}
	if got, _ := tab.Lookup("city", Text("edmonton")); len(got) != 1 {
		t.Errorf("edmonton after update = %v", got)
	}
}
