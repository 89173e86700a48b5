package ppdb

import (
	"sync"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/relational"
)

func TestProviderView(t *testing.T) {
	db := clinicDB(t)
	rows, err := db.ProviderView("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Table != "patients" {
		t.Fatalf("rows = %+v", rows)
	}
	// Full granularity: exact weight, not a range.
	w, ok := rows[0].Values[2].AsFloat()
	if !ok || w != 61.5 {
		t.Errorf("own weight = %v", rows[0].Values[2])
	}
	if _, err := db.ProviderView("stranger"); err == nil {
		t.Error("unregistered provider should fail")
	}
}

func TestUpdateOwnRow(t *testing.T) {
	db := clinicDB(t)
	rows, err := db.ProviderView("alice")
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	updated := append(relational.Row(nil), row.Values...)
	updated[2] = relational.Float(59.0)
	if err := db.UpdateOwnRow("alice", row.Table, row.RowID, updated); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.ProviderView("alice")
	if w, _ := rows[0].Values[2].AsFloat(); w != 59 {
		t.Errorf("updated weight = %v", rows[0].Values[2])
	}
	// Bob cannot update alice's row.
	if err := db.UpdateOwnRow("bob", row.Table, row.RowID, updated); err == nil {
		t.Error("cross-provider update must fail")
	}
	// Ownership reassignment refused.
	stolen := append(relational.Row(nil), updated...)
	stolen[0] = relational.Text("bob")
	if err := db.UpdateOwnRow("alice", row.Table, row.RowID, stolen); err == nil {
		t.Error("ownership reassignment must fail")
	}
	// Missing row / table.
	if err := db.UpdateOwnRow("alice", "patients", relational.RowID(999), updated); err == nil {
		t.Error("missing row must fail")
	}
	if err := db.UpdateOwnRow("alice", "nope", row.RowID, updated); err == nil {
		t.Error("missing table must fail")
	}
}

func TestSelfAudit(t *testing.T) {
	db := clinicDB(t)
	// Bob never consented to research → violated, would default.
	rep, err := db.SelfAudit("bob")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Violated || !rep.Defaults || len(rep.Pairs) == 0 {
		t.Errorf("bob self-audit = %+v", rep)
	}
	// Alice is clean.
	rep, err = db.SelfAudit("alice")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated {
		t.Errorf("alice self-audit = %+v", rep)
	}
	if _, err := db.SelfAudit("stranger"); err == nil {
		t.Error("unregistered provider should fail")
	}
}

func TestUpdatePreferences(t *testing.T) {
	db := clinicDB(t)
	// Bob grants research on weight and patient: his violation disappears.
	bob := privacy.NewPrefs("bob", 5)
	bob.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	bob.Add("weight", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 2, Retention: 3})
	bob.Add("age", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 2, Retention: 4})
	bob.Add("patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	bob.Add("patient", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 3, Retention: 3})
	if err := db.UpdatePreferences("bob", bob); err != nil {
		t.Fatal(err)
	}
	rep, err := db.SelfAudit("bob")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated {
		t.Errorf("bob still violated after consent: %+v", rep)
	}
	// Identity mismatch and unknown provider refused.
	if err := db.UpdatePreferences("alice", bob); err == nil {
		t.Error("identity mismatch must fail")
	}
	carol := privacy.NewPrefs("carol", 5)
	if err := db.UpdatePreferences("carol", carol); err == nil {
		t.Error("unregistered provider must fail")
	}
	if err := db.UpdatePreferences("bob", nil); err == nil {
		t.Error("nil prefs must fail")
	}
}

// TestUpdatePreferencesNeverResurrects races a self-service update against
// the removal of the same provider, round after round from a common start.
// Either order must leave the provider absent: an update that returned nil
// landed before the remove, and one that came after must fail as
// unregistered. Checking registration and writing in separate critical
// sections let the update re-register a provider the remove had deleted.
func TestUpdatePreferencesNeverResurrects(t *testing.T) {
	db := clinicDB(t)
	bob, ok := db.Provider("bob")
	if !ok {
		t.Fatal("clinic corpus has no bob")
	}
	rounds, deadline := 100000, time.Now().Add(3*time.Second)
	if testing.Short() {
		rounds = 2000
	}
	for round := 0; round < rounds && time.Now().Before(deadline); round++ {
		if err := db.RegisterProvider(bob); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		var updateErr, removeErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			updateErr = db.UpdatePreferences("bob", bob)
		}()
		go func() {
			defer wg.Done()
			<-start
			_, removeErr = db.RemoveProvider("bob")
		}()
		close(start)
		wg.Wait()
		if removeErr != nil {
			t.Fatal(removeErr)
		}
		if _, ok := db.Provider("bob"); ok {
			t.Fatalf("round %d: update (err = %v) re-registered bob after a completed remove", round, updateErr)
		}
	}
}
