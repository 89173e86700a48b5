package ppdb

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
)

func TestAuditByPurpose(t *testing.T) {
	db := clinicDB(t)
	db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT weight FROM patients"})
	db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT age FROM patients"})
	db.QueryEnforced(EnforcedQuery{Purpose: "marketing", Visibility: 2, SQL: "SELECT weight FROM patients"})
	byP := db.Audit().ByPurpose()
	if byP["care"] != 2 || byP["marketing"] != 1 {
		t.Errorf("ByPurpose = %v", byP)
	}
}

func TestProvidersListing(t *testing.T) {
	db := clinicDB(t)
	ps := db.Providers()
	if len(ps) != 2 {
		t.Fatalf("providers = %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Provider] = true
	}
	if !names["alice"] || !names["bob"] {
		t.Errorf("names = %v", names)
	}
}

// TestSuppressOnlyFallback exercises the default hierarchy for attributes
// without a registered one: partial granularity suppresses entirely.
func TestSuppressOnlyFallback(t *testing.T) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 1, Retention: 4})
	db, err := New(Config{Policy: hp}) // no hierarchies registered
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "note", Type: relational.TypeText},
	})
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	// "a" consents to the care read at full granularity, so the policy's
	// G1 grant alone degrades the note; with no preference the Sec. 5
	// implicit zero would suppress the row instead.
	p := privacy.NewPrefs("a", 10)
	p.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db.RegisterProvider(p)
	db.Insert("t", "a", relational.Row{relational.Text("a"), relational.Text("secret details")})

	res, err := db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT note FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Display() != "*" {
		t.Errorf("note = %q, want suppressed", res.Rows[0][0].Display())
	}
	// NULL passes through the suppressor.
	db2, _ := New(Config{Policy: hp})
	db2.RegisterTable("t", schema, "provider")
	db2.RegisterProvider(p.Clone(""))
	db2.Insert("t", "a", relational.Row{relational.Text("a"), relational.Null()})
	res, err = db2.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT note FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("NULL should survive suppression: %v", res.Rows[0][0])
	}
}

// TestHierarchyLevelMapping pins the policy-granularity → hierarchy-level
// conversion at the scale edges.
func TestHierarchyLevelMapping(t *testing.T) {
	db := clinicDB(t) // weight hierarchy has 4 levels (0..3)
	// Full granularity (scale max 3) → level 0 (exact).
	if lv := db.hierarchyLevel("weight", 3); lv != 0 {
		t.Errorf("g=3 → %d, want 0", lv)
	}
	// Zero granularity → full suppression (hierarchy max).
	if lv := db.hierarchyLevel("weight", 0); lv != db.hierarchyFor("weight").Levels()-1 {
		t.Errorf("g=0 → %d, want max", lv)
	}
	// Intermediate levels are monotone: coarser policy ⇒ deeper level.
	prev := db.hierarchyLevel("weight", 3)
	for g := privacy.Level(2); g >= 0; g-- {
		lv := db.hierarchyLevel("weight", g)
		if lv < prev {
			t.Errorf("hierarchy level decreased at g=%d", g)
		}
		prev = lv
	}
}

// TestQueryGroupedAggregatesGated verifies that aggregates and grouping
// never reach the store: their answers mix cells across providers, so the
// per-datum planner refuses them even where the policy covers every
// referenced attribute, and ORDER BY references are policy-gated like any
// other.
func TestQueryGroupedAggregatesGated(t *testing.T) {
	db := clinicDB(t)
	// AVG(weight) for research is refused although weight has a research
	// tuple…
	var unenf *query.UnenforceableError
	if _, err := db.QueryEnforced(EnforcedQuery{
		Purpose: "research", Visibility: 3,
		SQL: "SELECT AVG(weight) FROM patients",
	}); !errors.As(err, &unenf) {
		t.Errorf("research aggregate must be unenforceable, got %v", err)
	}
	// …and so is AVG(age) (no research tuple on age).
	if _, err := db.QueryEnforced(EnforcedQuery{
		Purpose: "research", Visibility: 3,
		SQL: "SELECT AVG(age) FROM patients",
	}); err == nil {
		t.Error("aggregate over ungoverned attribute must be denied")
	}
	// ORDER BY and GROUP BY references are gated too.
	if _, err := db.QueryEnforced(EnforcedQuery{
		Purpose: "research", Visibility: 3,
		SQL: "SELECT weight FROM patients ORDER BY age",
	}); err == nil {
		t.Error("ORDER BY attribute must be gated")
	}
	if _, err := db.QueryEnforced(EnforcedQuery{
		Purpose: "research", Visibility: 3,
		SQL: "SELECT COUNT(*) FROM patients GROUP BY age",
	}); err == nil {
		t.Error("GROUP BY attribute must be gated")
	}
}

// TestDeniedErrorMessage pins that a refusal surfaced by QueryEnforced
// names both the attribute and the reason.
func TestDeniedErrorMessage(t *testing.T) {
	db := clinicDB(t)
	_, err := db.QueryEnforced(EnforcedQuery{Purpose: "marketing", Visibility: 2, SQL: "SELECT weight FROM patients"})
	var denied *query.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("want *query.DeniedError, got %v", err)
	}
	if !strings.Contains(err.Error(), "weight") || !strings.Contains(err.Error(), `no policy tuple for purpose "marketing"`) {
		t.Errorf("message = %q", err.Error())
	}
}
