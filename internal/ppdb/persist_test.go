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

	// Text the /v1/load reader would trim or read as NULL survives a
	// checkpoint verbatim: an empty NOT NULL cell, a padded cell, and a
	// padded provider key.
	strict, _ := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "note", Type: relational.TypeText, NotNull: true},
	})
	if err := db.RegisterTable("u", strict, "provider"); err != nil {
		t.Fatal(err)
	}
	cells := map[string]string{"c": "", "d": "  padded  ", "bob ": "kept"}
	for _, name := range []string{"c", "d", "bob "} {
		if err := db.RegisterProvider(privacy.NewPrefs(name, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("u", name, relational.Row{relational.Text(name), relational.Text(cells[name])}); err != nil {
			t.Fatal(err)
		}
	}
	dir2 := t.TempDir()
	if err := db.Save(dir2); err != nil {
		t.Fatal(err)
	}
	db3, err := Load(dir2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range cells {
		rows, err := db3.ProviderView(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Values[0].Display() != name || rows[0].Values[1].Display() != want || rows[0].Values[1].IsNull() {
			t.Errorf("provider %q reloaded as %v, want note %q", name, rows, want)
		}
	}
}

// TestSnapshotKeepsRowIDs: a row keeps its id across a checkpoint, so an
// id a provider read before a restart still names their row after it, and
// an id freed by a delete — even of the last row — is never handed out
// again.
func TestSnapshotKeepsRowIDs(t *testing.T) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := New(Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, NotNull: true},
		{Name: "note", Type: relational.TypeText},
	})
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ann", "bob", "cy", "dee"} {
		if err := db.RegisterProvider(privacy.NewPrefs(name, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("t", name, relational.Row{relational.Text(name), relational.Text("v1")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"ann", "dee"} { // the first and the last row
		if _, err := db.RemoveProvider(name); err != nil {
			t.Fatal(err)
		}
	}
	live, err := db.ProviderView("cy")
	if err != nil || len(live) != 1 || live[0].RowID != 2 {
		t.Fatalf("cy's row before the checkpoint = %+v, %v; want id 2", live, err)
	}

	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.ProviderView("cy")
	if err != nil || len(got) != 1 || got[0].RowID != 2 {
		t.Fatalf("cy's row after the checkpoint = %+v, %v; want id 2", got, err)
	}
	if err := db2.UpdateOwnRow("cy", "t", live[0].RowID, relational.Row{relational.Text("cy"), relational.Text("v2")}); err != nil {
		t.Fatalf("update by the pre-restart id: %v", err)
	}
	if err := db2.RegisterProvider(privacy.NewPrefs("eve", 10)); err != nil {
		t.Fatal(err)
	}
	id, err := db2.Insert("t", "eve", relational.Row{relational.Text("eve"), relational.Text("v1")})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Errorf("row inserted after the reload got id %d, want 4 (ids 0-3 were handed out before)", id)
	}
}

// TestSnapshotKeepsExpiredCells: cells a sweep expired stay expired across
// a checkpoint, so sweeping the reloaded store expires — and reports —
// nothing the live store would not.
func TestSnapshotKeepsExpiredCells(t *testing.T) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 1})
	db, err := New(Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, NotNull: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ann", "bob", "cy"} {
		if err := db.RegisterProvider(privacy.NewPrefs(name, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("t", name, relational.Row{relational.Text(name), relational.Float(60)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Advance(2 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if rep, err := db.Sweep(); err != nil || rep.CellsExpired != 3 || rep.RowsDeleted != 0 {
		t.Fatalf("first sweep = %+v, %v; want 3 cells expired, no rows deleted", rep, err)
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for label, d := range map[string]*DB{"live": db, "reloaded": db2} {
		rep, err := d.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if rep.CellsExpired != 0 || rep.RowsDeleted != 0 {
			t.Errorf("%s store swept again: %+v, want nothing expired", label, rep)
		}
	}
}

// TestSaveLoadKeepsEscapableNames pins provider identity across a
// checkpoint for names the DSL encoder once escaped: a backslash must come
// back as one backslash, not two (which would be a different provider key,
// its rows left under the old one). A name the DSL cannot carry at all
// fails at registration, not at the next reload.
func TestSaveLoadKeepsEscapableNames(t *testing.T) {
	hp := privacy.NewHousePolicy(`clinic\v1`)
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := New(Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	const name = `ann\bee`
	p := privacy.NewPrefs(name, 3)
	p.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	if err := db.RegisterProvider(p); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProvider(privacy.NewPrefs(`dr "who"`, 1)); err == nil {
		t.Error(`provider "dr \"who\"" accepted`)
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Policy().Name != hp.Name {
		t.Errorf("policy name %q reloaded as %q", hp.Name, db2.Policy().Name)
	}
	ps := db2.Providers()
	if len(ps) != 1 || ps[0].Provider != name {
		t.Fatalf("providers after reload = %v, want exactly %q", ps, name)
	}
	if _, ok := db2.Provider(name); !ok {
		t.Errorf("provider %q not found under its own key after reload", name)
	}
}

// TestLoadFormat2Snapshot: snapshots written before format 3 still load
// as they always did — rows take fresh dense ids in saved order with their
// saved insert instants, cells are read the way /v1/load reads CSV
// (trimmed, empty as NULL), and new rows continue after the last one.
func TestLoadFormat2Snapshot(t *testing.T) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 1})
	db, err := New(Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, NotNull: true},
		{Name: "note", Type: relational.TypeText},
	})
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ann", "bob"} {
		if err := db.RegisterProvider(privacy.NewPrefs(name, 10)); err != nil {
			t.Fatal(err)
		}
	}
	arts := renderArtifacts(t, db)
	arts[filepath.Join("tables", "t.csv")] = []byte("provider,note\nbob,  kept  \nann,\n")
	arts[filepath.Join("tables", "t.meta.csv")] = []byte("provider,inserted\nbob,2010-12-31T00:00:00Z\nann,2011-01-01T00:00:00Z\n")
	db2, err := restore(arts, manifestJSON{FormatVersion: 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bob, _ := db2.ProviderView("bob")
	ann, _ := db2.ProviderView("ann")
	if len(bob) != 1 || bob[0].RowID != 0 || bob[0].Values[1].Display() != "kept" {
		t.Errorf("bob = %+v, want row 0 with the trimmed note", bob)
	}
	if len(ann) != 1 || ann[0].RowID != 1 || !ann[0].Values[1].IsNull() {
		t.Errorf("ann = %+v, want row 1 with a NULL note", ann)
	}
	// bob's row was inserted a day before the clock, ann's at it: one
	// more second expires bob's one-day note alone.
	if _, err := db2.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if rep, err := db2.Sweep(); err != nil || rep.CellsExpired != 1 {
		t.Errorf("sweep = %+v, %v; want bob's note expired alone", rep, err)
	}
	id, err := db2.Insert("t", "ann", relational.Row{relational.Text("ann"), relational.Text("new")})
	if err != nil || id != 2 {
		t.Errorf("insert after a format-2 load = %d, %v; want id 2", id, err)
	}
}
