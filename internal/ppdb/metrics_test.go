package ppdb

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/floatutil"
	"repro/internal/metrics"
	"repro/internal/privacy"
)

// TestCertifyPathCounters pins the per-path certification counters:
// Certify counts as full (the kernel pass over every row) and
// CertifySummary as summary. Shared default registry → delta assertions.
func TestCertifyPathCounters(t *testing.T) {
	db := clinicDB(t)
	full0, sum0 := mCertifyFull.Value(), mCertifySummary.Value()

	if _, err := db.Certify(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CertifySummary(0.5); err != nil {
		t.Fatal(err)
	}
	if got := mCertifyFull.Value() - full0; got != 1 {
		t.Errorf("full moved %d, want 1", got)
	}
	if got := mCertifySummary.Value() - sum0; got != 1 {
		t.Errorf("summary moved %d, want 1", got)
	}

	// An invalid α is rejected before any path is counted.
	if _, err := db.Certify(-1); err == nil {
		t.Fatal("alpha -1 accepted")
	}
	if got := mCertifyFull.Value() - full0; got != 1 {
		t.Errorf("rejected alpha still counted: %d", got)
	}
	if _, err := db.CertifySummary(2); err == nil {
		t.Fatal("alpha 2 accepted")
	}
	if got := mCertifySummary.Value() - sum0; got != 1 {
		t.Errorf("rejected alpha still counted: %d", got)
	}
}

// TestLedgerSeriesCountTheStore pins the ledger_* series to the served
// DB's provider table: one SetPolicy is exactly one rebuild however wide
// its fan-out, and ledger_rows follows NumProviders through a
// registration, a batch and a removal.
func TestLedgerSeriesCountTheStore(t *testing.T) {
	rebuilds := metrics.Default.Counter("ledger_rebuilds_total", "")
	rows := metrics.Default.Gauge("ledger_rows", "")
	setProcs(t, 4)
	db, err := New(Config{Policy: clinicDB(t).Policy()})
	if err != nil {
		t.Fatal(err)
	}
	checkRows := func(stage string) {
		t.Helper()
		if got := int(rows.Value()); got != db.NumProviders() {
			t.Errorf("%s: ledger_rows = %d, NumProviders = %d", stage, got, db.NumProviders())
		}
	}
	if err := db.RegisterProvider(privacy.NewPrefs("ann", 1)); err != nil {
		t.Fatal(err)
	}
	checkRows("after register")
	if err := db.RegisterProviders([]*privacy.Prefs{privacy.NewPrefs("bob", 1), privacy.NewPrefs("cy", 1), privacy.NewPrefs("ANN", 2)}); err != nil {
		t.Fatal(err)
	}
	checkRows("after batch")
	if db.NumProviders() != 3 {
		t.Errorf("NumProviders = %d, want 3", db.NumProviders())
	}
	if _, err := db.RemoveProvider("bob"); err != nil {
		t.Fatal(err)
	}
	checkRows("after remove")

	r0 := rebuilds.Value()
	if _, err := db.SetPolicy(db.Policy()); err != nil {
		t.Fatal(err)
	}
	if got := rebuilds.Value() - r0; got != 1 {
		t.Errorf("one SetPolicy moved ledger_rebuilds_total by %d, want 1", got)
	}
}

// TestPopulationGauges pins the P(W)/P(Default)/N gauges to the ledger
// summary after every kind of mutation.
func TestPopulationGauges(t *testing.T) {
	db := clinicDB(t)
	sum, err := db.CertifySummary(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(mProviders.Value()); got != sum.N {
		t.Errorf("ppdb_providers = %d, want %d", got, sum.N)
	}
	if !floatutil.Eq(mPW.Value(), sum.PW) || !floatutil.Eq(mPDefault.Value(), sum.PDefault) {
		t.Errorf("gauges (%g, %g) diverge from summary (%g, %g)",
			mPW.Value(), mPDefault.Value(), sum.PW, sum.PDefault)
	}
	if _, err := db.RemoveProvider("bob"); err != nil {
		t.Fatal(err)
	}
	sum, err = db.CertifySummary(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(mProviders.Value()); got != sum.N {
		t.Errorf("after removal ppdb_providers = %d, want %d", got, sum.N)
	}
	if !floatutil.Eq(mPW.Value(), sum.PW) {
		t.Errorf("after removal ppdb_pw = %g, want %g", mPW.Value(), sum.PW)
	}
}

// TestPersistenceMetrics pins the save/load histograms and the
// previous-generation fallback counter.
func TestPersistenceMetrics(t *testing.T) {
	db := clinicDB(t)
	dir := filepath.Join(t.TempDir(), "snap")

	saves0 := mSaveSeconds.Snapshot().Count
	loads0 := mLoadSeconds.Snapshot().Count
	falls0 := mLoadFallbacks.Value()
	errs0 := mSaveErrors.Value()

	// Two saves so a previous generation exists; both land in the
	// histogram.
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if got := mSaveSeconds.Snapshot().Count - saves0; got != 2 {
		t.Errorf("save observations moved %d, want 2", got)
	}
	if got := mSaveErrors.Value() - errs0; got != 0 {
		t.Errorf("clean saves counted as errors: %d", got)
	}

	// A clean load observes the duration and no fallback.
	if _, err := Load(dir, Config{}); err != nil {
		t.Fatal(err)
	}
	if got := mLoadSeconds.Snapshot().Count - loads0; got != 1 {
		t.Errorf("load observations moved %d, want 1", got)
	}
	if got := mLoadFallbacks.Value() - falls0; got != 0 {
		t.Errorf("clean load counted a fallback: %d", got)
	}

	// Corrupt the newest generation: the load must fall back and say so.
	if err := os.WriteFile(filepath.Join(dir, "state.json"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, Config{}); err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if got := mLoadFallbacks.Value() - falls0; got != 1 {
		t.Errorf("fallbacks moved %d, want 1", got)
	}
	if got := mLoadSeconds.Snapshot().Count - loads0; got != 2 {
		t.Errorf("load observations moved %d, want 2", got)
	}
}
