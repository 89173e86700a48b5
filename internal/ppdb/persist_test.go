package ppdb

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/generalize"
	"repro/internal/privacy"
	"repro/internal/relational"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := clinicDB(t)
	// Move the clock so the saved timestamp is distinctive, then save.
	if _, err := db.Advance(10 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Expected artifacts exist.
	for _, f := range []string{
		"corpus.dsl", "state.json",
		filepath.Join("tables", "patients.schema.sql"),
		filepath.Join("tables", "patients.csv"),
		filepath.Join("tables", "patients.meta.csv"),
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}

	// Reload with the same runtime config (hierarchies matter for reads).
	weightH, _ := generalize.NewNumericHierarchy(5, 2, 2)
	db2, err := Load(dir, Config{
		Hierarchies: map[string]generalize.Hierarchy{"weight": weightH},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clock restored.
	if !db2.Now().Equal(db.Now()) {
		t.Errorf("clock = %v, want %v", db2.Now(), db.Now())
	}
	// Providers restored with preferences intact.
	if len(db2.Providers()) != 2 {
		t.Fatalf("providers = %d", len(db2.Providers()))
	}
	bob, ok := db2.Provider("bob")
	if !ok || bob.Threshold != 5 {
		t.Errorf("bob = %+v", bob)
	}
	if bob.Sensitivity("weight", "care").Value != 2 {
		t.Errorf("bob sensitivity lost: %v", bob.Sensitivity("weight", "care"))
	}
	// Rows restored.
	if db2.TableLen("patients") != 2 {
		t.Fatalf("rows = %d", db2.TableLen("patients"))
	}
	// Policy behaviour identical: certification matches the original.
	c1, err := db.Certify(0.5)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := db2.Certify(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Report.PW != c2.Report.PW || c1.Report.TotalViolations != c2.Report.TotalViolations {
		t.Errorf("certification mismatch: %+v vs %+v", c1.Report, c2.Report)
	}
	// Queries behave the same, including granularity degradation.
	res, err := db2.QueryEnforced(EnforcedQuery{
		Purpose: "research", Visibility: 3,
		SQL: "SELECT weight FROM patients ORDER BY weight",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Display(); got[0] != '[' {
		t.Errorf("degradation lost after reload: %q", got)
	}
	// Retention provenance preserved: advancing past a year from the
	// ORIGINAL insert time expires the rows.
	db2.Advance(360 * 24 * time.Hour) // 10 + 360 = 370 days since insert
	rep, err := db2.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsDeleted != 2 {
		t.Errorf("sweep after reload deleted %d rows (insert times lost?)", rep.RowsDeleted)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir(), Config{}); err == nil {
		t.Error("empty directory should fail")
	}
	// Corrupted corpus.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "corpus.dsl"), []byte("junk"), 0o644)
	if _, err := Load(dir, Config{}); err == nil {
		t.Error("bad corpus should fail")
	}
	// Valid corpus, missing state.
	dir2 := t.TempDir()
	os.WriteFile(filepath.Join(dir2, "corpus.dsl"),
		[]byte(`policy "p" { attr x { tuple purpose=q visibility=0 granularity=0 retention=0 } }`), 0o644)
	if _, err := Load(dir2, Config{}); err == nil {
		t.Error("missing state.json should fail")
	}
	// Bad state JSON.
	os.WriteFile(filepath.Join(dir2, "state.json"), []byte("{"), 0o644)
	if _, err := Load(dir2, Config{}); err == nil {
		t.Error("bad state.json should fail")
	}
	// Mismatched provenance count.
	db := clinicDB(t)
	dir3 := t.TempDir()
	if err := db.Save(dir3); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir3, "tables", "patients.meta.csv"),
		[]byte("provider,inserted\n"), 0o644)
	if _, err := Load(dir3, Config{}); err == nil {
		t.Error("provenance mismatch should fail")
	}
}

func TestSaveIsDeterministicOnDisk(t *testing.T) {
	db := clinicDB(t)
	dir1, dir2 := t.TempDir(), t.TempDir()
	if err := db.Save(dir1); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir2); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"corpus.dsl", "state.json", filepath.Join("tables", "patients.csv")} {
		a, err := os.ReadFile(filepath.Join(dir1, f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, f))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between saves", f)
		}
	}
}

func TestSaveLoadWithNullsAndQuotes(t *testing.T) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := New(Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "note", Type: relational.TypeText},
	})
	db.RegisterTable("t", schema, "provider")
	p := privacy.NewPrefs("a", 10)
	db.RegisterProvider(p)
	db.Insert("t", "a", relational.Row{relational.Text("a"), relational.Text(`tricky, "quoted" text`)})
	q := privacy.NewPrefs("b", 10)
	db.RegisterProvider(q)
	db.Insert("t", "b", relational.Row{relational.Text("b"), relational.Null()})

	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db2.ProviderView("a")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Values[1].Display() != `tricky, "quoted" text` {
		t.Errorf("quoted text = %q", rows[0].Values[1].Display())
	}
	rows, _ = db2.ProviderView("b")
	if !rows[0].Values[1].IsNull() {
		t.Errorf("NULL lost: %v", rows[0].Values[1])
	}
}
