package ppdb

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/generalize"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
)

// clinicDB builds a PPDB with a patients table, a two-purpose policy and two
// registered providers. Policy (default scales):
//
//	weight: care      → v=house(2),      g=specific(3), r=year(4)
//	weight: research  → v=third-party(3), g=partial(2),  r=month(3)
//	age:    care      → v=house(2),      g=partial(2),  r=year(4)
func clinicDB(t *testing.T) *DB {
	t.Helper()
	weightH, err := generalize.NewNumericHierarchy(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ageH, err := generalize.NewNumericHierarchy(10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	hp := privacy.NewHousePolicy("clinic-v1")
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("weight", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 2, Retention: 3})
	hp.Add("age", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 2, Retention: 4})
	hp.Add("patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("patient", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 3, Retention: 3})

	sigma := privacy.AttributeSensitivities{}
	sigma.Set("weight", 4)

	db, err := New(Config{
		Policy:   hp,
		AttrSens: sigma,
		Hierarchies: map[string]generalize.Hierarchy{
			"weight": weightH,
			"age":    ageH,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	schema, err := relational.NewSchema([]relational.Column{
		{Name: "patient", Type: relational.TypeText, PrimaryKey: true},
		{Name: "age", Type: relational.TypeInt},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("patients", schema, "patient"); err != nil {
		t.Fatal(err)
	}

	alice := privacy.NewPrefs("alice", 50)
	alice.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 3, Granularity: 3, Retention: 5})
	alice.Add("weight", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 2, Retention: 3})
	alice.Add("age", privacy.Tuple{Purpose: "care", Visibility: 3, Granularity: 3, Retention: 5})
	alice.Add("patient", privacy.Tuple{Purpose: "care", Visibility: 3, Granularity: 3, Retention: 5})
	alice.Add("patient", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 3, Retention: 3})

	bob := privacy.NewPrefs("bob", 5)
	// Bob never consented to research: implicit zero will flag it.
	bob.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	bob.Add("age", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 2, Retention: 4})
	bob.Add("patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	bob.SetSensitivity("weight", privacy.Sensitivity{Value: 2, Visibility: 2, Granularity: 2, Retention: 2})

	for _, p := range []*privacy.Prefs{alice, bob} {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("patients", "alice",
		relational.Row{relational.Text("alice"), relational.Int(34), relational.Float(61.5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("patients", "bob",
		relational.Row{relational.Text("bob"), relational.Int(51), relational.Float(92)}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil policy should fail")
	}
	bad := privacy.NewHousePolicy("bad")
	bad.Add("x", privacy.Tuple{Purpose: "p", Visibility: 99})
	if _, err := New(Config{Policy: bad}); err == nil {
		t.Error("off-scale policy should fail")
	}
}

func TestRegistrationErrors(t *testing.T) {
	db := clinicDB(t)
	schema, _ := relational.NewSchema([]relational.Column{{Name: "x", Type: relational.TypeInt}})
	if err := db.RegisterTable("t2", schema, "nope"); err == nil {
		t.Error("missing provider column should fail")
	}
	if err := db.RegisterTable(" ", schema, "x"); err == nil {
		t.Error("empty table name should fail")
	}
	if err := db.RegisterTable("t3", nil, "x"); err == nil {
		t.Error("nil schema should fail")
	}
	if err := db.RegisterProvider(nil); err == nil {
		t.Error("nil provider should fail")
	}
	badPrefs := privacy.NewPrefs("x", -1)
	if err := db.RegisterProvider(badPrefs); err == nil {
		t.Error("invalid prefs should fail")
	}
	// Insert for unregistered provider / table.
	if _, err := db.Insert("patients", "carol", relational.Row{relational.Text("carol"), relational.Int(1), relational.Float(1)}); err == nil {
		t.Error("unregistered provider should fail")
	}
	if _, err := db.Insert("nope", "alice", relational.Row{}); err == nil {
		t.Error("unregistered table should fail")
	}
	// Provider column mismatch.
	if _, err := db.Insert("patients", "alice", relational.Row{relational.Text("bob"), relational.Int(1), relational.Float(1)}); err == nil {
		t.Error("provider column mismatch should fail")
	}
}

func TestQueryAllowedCareFullGranularity(t *testing.T) {
	db := clinicDB(t)
	res, err := db.QueryEnforced(EnforcedQuery{
		Requester:  "dr-jones",
		Visibility: 2, // house
		Purpose:    "care",
		SQL:        "SELECT patient, weight FROM patients ORDER BY patient",
	})
	if err != nil {
		t.Fatal(err)
	}
	// care grants specific granularity: exact values.
	if w, _ := res.Rows[0][1].AsFloat(); w != 61.5 {
		t.Errorf("care weight = %v, want exact 61.5", res.Rows[0][1])
	}
	if db.Audit().Len() != 1 || !db.Audit().Records()[0].Allowed {
		t.Error("allowed access must be audited")
	}
}

func TestQueryGeneralizesForResearch(t *testing.T) {
	db := clinicDB(t)
	res, err := db.QueryEnforced(EnforcedQuery{
		Requester:  "analyst",
		Visibility: 3, // third-party
		Purpose:    "research",
		SQL:        "SELECT patient, weight FROM patients ORDER BY patient",
	})
	if err != nil {
		t.Fatal(err)
	}
	// research grants partial granularity (2 of max 3): weight must be a
	// range, not the exact value.
	got := res.Rows[0][1].Display()
	if !strings.HasPrefix(got, "[") {
		t.Errorf("research weight = %q, want a generalized range", got)
	}
}

func TestQueryDeniedWrongPurpose(t *testing.T) {
	db := clinicDB(t)
	_, err := db.QueryEnforced(EnforcedQuery{
		Requester:  "marketer",
		Visibility: 2,
		Purpose:    "marketing",
		SQL:        "SELECT weight FROM patients",
	})
	var denied *query.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("want DeniedError, got %v", err)
	}
	if denied.Attribute != "weight" {
		t.Errorf("denied attribute = %q", denied.Attribute)
	}
	recs := db.Audit().Denied()
	if len(recs) != 1 || recs[0].Purpose != "marketing" {
		t.Errorf("denied audit = %+v", recs)
	}
}

func TestQueryDeniedVisibility(t *testing.T) {
	db := clinicDB(t)
	// age for care is visible only up to house (2); a third-party (3) is
	// refused.
	_, err := db.QueryEnforced(EnforcedQuery{
		Requester:  "outsider",
		Visibility: 3,
		Purpose:    "care",
		SQL:        "SELECT age FROM patients",
	})
	var denied *query.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("want DeniedError, got %v", err)
	}
	if !strings.Contains(denied.Reason, "visibility") {
		t.Errorf("reason = %q", denied.Reason)
	}
}

func TestQueryWherePredicateGated(t *testing.T) {
	db := clinicDB(t)
	// Research policy does not cover age at all — even filtering on it must
	// be denied (use of the attribute for an unstated purpose).
	_, err := db.QueryEnforced(EnforcedQuery{
		Requester:  "analyst",
		Visibility: 3,
		Purpose:    "research",
		SQL:        "SELECT weight FROM patients WHERE age > 40",
	})
	var denied *query.DeniedError
	if !errors.As(err, &denied) || denied.Attribute != "age" {
		t.Fatalf("WHERE attribute must be gated, got %v", err)
	}
}

func TestQueryStarExpandsGate(t *testing.T) {
	db := clinicDB(t)
	// SELECT * touches age, which research does not cover.
	_, err := db.QueryEnforced(EnforcedQuery{
		Requester:  "analyst",
		Visibility: 3,
		Purpose:    "research",
		SQL:        "SELECT * FROM patients",
	})
	var denied *query.DeniedError
	if !errors.As(err, &denied) {
		t.Fatalf("star must be expanded and gated, got %v", err)
	}
}

func TestQueryNonSelectRejected(t *testing.T) {
	db := clinicDB(t)
	if _, err := db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "DELETE FROM patients"}); err == nil {
		t.Error("non-SELECT must be rejected")
	}
	if _, err := db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "not sql"}); err == nil {
		t.Error("parse errors must surface")
	}
	if got := len(db.Audit().Denied()); got != 2 {
		t.Errorf("denied audit entries = %d, want 2", got)
	}
}

func TestCertify(t *testing.T) {
	db := clinicDB(t)
	cert, err := db.Certify(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Alice's prefs bound the policy everywhere; Bob never consented to
	// research (implicit zero on weight and patient) → violated.
	if cert.Report.ViolatedCount != 1 {
		t.Errorf("violated = %d, want 1 (bob)", cert.Report.ViolatedCount)
	}
	if cert.MinAlpha != 0.5 {
		t.Errorf("MinAlpha = %g, want 0.5", cert.MinAlpha)
	}
	if !cert.IsAlphaPPDB {
		t.Error("P(W) = 0.5 ≤ α = 0.5 should certify")
	}
	cert2, _ := db.Certify(0.25)
	if cert2.IsAlphaPPDB {
		t.Error("α = 0.25 should fail")
	}
	// Bob's violation severity: research implicit zero on weight:
	// overshoot v=3,g=2,r=3 → (3+2+3)... weighted: Σ=4, value=2, dims=2 each
	// = 4×2×2×(3+2+3) = 128 > threshold 5 → would default.
	if len(cert.WouldDefault) != 1 || cert.WouldDefault[0] != "bob" {
		t.Errorf("WouldDefault = %v", cert.WouldDefault)
	}
	if _, err := db.Certify(-0.1); err == nil {
		t.Error("negative alpha should fail")
	}
	if _, err := db.Certify(1.1); err == nil {
		t.Error("alpha > 1 should fail")
	}
}

func TestEnforceDefaults(t *testing.T) {
	db := clinicDB(t)
	gone, rows, err := db.EnforceDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) != 1 || gone[0] != "bob" || rows != 1 {
		t.Errorf("EnforceDefaults = %v, %d", gone, rows)
	}
	if db.TableLen("patients") != 1 {
		t.Errorf("rows remaining = %d", db.TableLen("patients"))
	}
	if _, ok := db.Provider("bob"); ok {
		t.Error("bob should be deregistered")
	}
	// Now the database is violation-free.
	cert, _ := db.Certify(0)
	if !cert.IsAlphaPPDB {
		t.Error("after defaults the DB should be a 0-PPDB")
	}
}

func TestSetPolicyLogsChange(t *testing.T) {
	db := clinicDB(t)
	wide := db.Policy().Widen("clinic-v2", "weight", privacy.DimVisibility, 1)
	change, err := db.SetPolicy(wide)
	if err != nil {
		t.Fatal(err)
	}
	if change.From != "clinic-v1" || change.To != "clinic-v2" {
		t.Errorf("change = %+v", change)
	}
	// Widening visibility on weight beyond alice's care bound (3): care
	// policy v 2→3 equals alice's 3 — still bounded; research v 3→4 exceeds
	// alice's research bound 3 → alice becomes violated too.
	if change.DeltaPW <= 0 {
		t.Errorf("ΔP(W) = %g, want positive", change.DeltaPW)
	}
	log := db.PolicyLog()
	if len(log) != 1 || log[0].To != "clinic-v2" {
		t.Errorf("policy log = %+v", log)
	}
	if db.Policy().Name != "clinic-v2" {
		t.Error("policy not swapped")
	}
	if _, err := db.SetPolicy(nil); err == nil {
		t.Error("nil policy should fail")
	}
}

func TestSweepRetention(t *testing.T) {
	db := clinicDB(t)
	// research weight retention = month (level 3 → 30 days); care = year.
	// Advance 100 days: weight's effective retention is the max over
	// purposes (year) → nothing expires yet.
	if _, err := db.Advance(100 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsExpired != 0 || rep.RowsDeleted != 0 {
		t.Errorf("sweep at 100d = %+v, want nothing", rep)
	}
	// Advance past a year: age and weight expire (year), and the patient
	// identity column (retention year for care) expires too → rows deleted.
	if _, err := db.Advance(300 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	rep, err = db.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsDeleted != 2 {
		t.Errorf("sweep at 400d deleted %d rows, want 2 (cells expired: %d)", rep.RowsDeleted, rep.CellsExpired)
	}
	if db.TableLen("patients") != 0 {
		t.Errorf("rows remaining = %d", db.TableLen("patients"))
	}
	// Negative advance rejected.
	if _, err := db.Advance(-time.Hour); err == nil {
		t.Error("negative advance should fail")
	}
}

func TestSweepCellwiseExpiry(t *testing.T) {
	// Dedicated DB where one attribute expires before the row does.
	hp := privacy.NewHousePolicy("p")
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 2}) // week
	hp.Add("patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := New(Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "patient", Type: relational.TypeText, PrimaryKey: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err := db.RegisterTable("t", schema, "patient"); err != nil {
		t.Fatal(err)
	}
	// p1 consents to the care read below; with no preference the Sec. 5
	// implicit zero would suppress the row before its expired cell shows.
	p := privacy.NewPrefs("p1", 10)
	p.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 2})
	if err := db.RegisterProvider(p); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", "p1", relational.Row{relational.Text("p1"), relational.Float(80)}); err != nil {
		t.Fatal(err)
	}
	db.Advance(10 * 24 * time.Hour) // 10 days: past week, before year
	rep, err := db.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsExpired != 1 || rep.RowsDeleted != 0 {
		t.Fatalf("sweep = %+v, want 1 cell expired", rep)
	}
	res, err := db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT weight FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("expired weight = %v, want NULL", res.Rows[0][0])
	}
	// A second sweep is idempotent.
	rep2, _ := db.Sweep()
	if rep2.CellsExpired != 0 {
		t.Errorf("second sweep expired %d cells", rep2.CellsExpired)
	}
}

func TestRemoveProvider(t *testing.T) {
	db := clinicDB(t)
	if n, err := db.RemoveProvider("alice"); err != nil || n != 1 {
		t.Errorf("removed %d rows (err %v)", n, err)
	}
	if db.TableLen("patients") != 1 {
		t.Error("alice's row should be gone")
	}
	if n, err := db.RemoveProvider("nobody"); err != nil || n != 0 {
		t.Errorf("removing unknown provider removed %d rows (err %v)", n, err)
	}
}

func TestRetentionScheduleValidate(t *testing.T) {
	scale := privacy.DefaultRetention
	rs := DefaultRetentionSchedule(scale)
	if err := rs.Validate(scale); err != nil {
		t.Fatalf("default schedule invalid: %v", err)
	}
	// Missing level.
	broken := RetentionSchedule{}
	if err := broken.Validate(scale); err == nil {
		t.Error("empty schedule should fail")
	}
	// Non-monotone.
	bad := DefaultRetentionSchedule(scale)
	bad[privacy.Level(1)] = 100 * 24 * time.Hour
	bad[privacy.Level(2)] = time.Hour
	if err := bad.Validate(scale); err == nil {
		t.Error("non-monotone schedule should fail")
	}
	// Top level never expires.
	now := time.Now()
	if rs.Expired(scale, scale.Max(), now.Add(-1000*24*time.Hour), now) {
		t.Error("indefinite retention must never expire")
	}
}

func TestLatticePurposeEnforcement(t *testing.T) {
	// A policy stated for "marketing" governs requests for
	// "email-marketing" when a lattice matcher is configured.
	l := privacy.NewLattice()
	if err := l.AddEdge("marketing", "email-marketing"); err != nil {
		t.Fatal(err)
	}
	hp := privacy.NewHousePolicy("p")
	hp.Add("email", privacy.Tuple{Purpose: "marketing", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := New(Config{Policy: hp, Options: coreOptionsWithMatcher(l)})
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "email", Type: relational.TypeText, PrimaryKey: true},
	})
	if err := db.RegisterTable("contacts", schema, "email"); err != nil {
		t.Fatal(err)
	}
	// The provider consents to marketing, so the lattice-covered read
	// discloses the row rather than falling to the Sec. 5 implicit zero.
	p := privacy.NewPrefs("a@b.c", 10)
	p.Add("email", privacy.Tuple{Purpose: "marketing", Visibility: 2, Granularity: 3, Retention: 4})
	db.RegisterProvider(p)
	db.Insert("contacts", "a@b.c", relational.Row{relational.Text("a@b.c")})

	res, err := db.QueryEnforced(EnforcedQuery{Purpose: "email-marketing", Visibility: 2, SQL: "SELECT email FROM contacts"})
	if err != nil {
		t.Errorf("lattice-covered purpose should be allowed: %v", err)
	} else if len(res.Rows) != 1 {
		t.Errorf("lattice-covered read returned %d rows, want 1", len(res.Rows))
	}
	if _, err := db.QueryEnforced(EnforcedQuery{Purpose: "telemetry", Visibility: 2, SQL: "SELECT email FROM contacts"}); err == nil {
		t.Error("uncovered purpose must be denied")
	}
}

func TestImportCSV(t *testing.T) {
	db := clinicDB(t)
	n, err := db.ImportCSV("patients", strings.NewReader("patient,age,weight\nalice,35,62.0\n"))
	if err == nil {
		t.Fatalf("duplicate pk should fail, loaded %d", n)
	}
	// New rows for registered providers load; alice/bob exist but have rows
	// already (pk conflict), so register a new provider.
	carol := privacy.NewPrefs("carol", 50)
	if err := db.RegisterProvider(carol); err != nil {
		t.Fatal(err)
	}
	n, err = db.ImportCSV("patients", strings.NewReader("patient,age,weight\ncarol,28,55.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || db.TableLen("patients") != 3 {
		t.Errorf("loaded %d, table %d", n, db.TableLen("patients"))
	}
	// Unregistered provider refused.
	if _, err := db.ImportCSV("patients", strings.NewReader("patient,age,weight\nzoe,1,1\n")); err == nil {
		t.Error("unregistered provider should fail")
	}
	// Unregistered table refused.
	if _, err := db.ImportCSV("nope", strings.NewReader("a\n1\n")); err == nil {
		t.Error("unregistered table should fail")
	}
	// Malformed CSV refused.
	if _, err := db.ImportCSV("patients", strings.NewReader("wrong,header\n1,2\n")); err == nil {
		t.Error("missing columns should fail")
	}
}
