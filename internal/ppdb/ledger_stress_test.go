package ppdb

import (
	"sync"
	"testing"

	"repro/internal/population"
	"repro/internal/privacy"
)

// TestLedgerConcurrentStress mixes preference edits, policy swaps,
// certifications, summaries and self-audits across goroutines; run under
// -race (scripts/ci.sh does). After the writers quiesce, the certification
// must equal the stateless recompute exactly, and the summary agree with
// it.
func TestLedgerConcurrentStress(t *testing.T) {
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, 61)
	if err != nil {
		t.Fatal(err)
	}
	mkPolicy := func(name string, level privacy.Level) *privacy.HousePolicy {
		hp := privacy.NewHousePolicy(name)
		hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
		hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
		return hp
	}
	pop := population.PrefsOf(gen.Generate(150))
	db, err := New(Config{Policy: mkPolicy("vA", 2), AttrSens: gen.AttributeSensitivities()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProviders(pop); err != nil {
		t.Fatal(err)
	}

	gen2, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, 62)
	if err != nil {
		t.Fatal(err)
	}
	edits := population.PrefsOf(gen2.Generate(150))

	var wg sync.WaitGroup
	const rounds = 30
	// Preference editors.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := edits[(w*rounds+i)%len(edits)]
				if err := db.UpdatePreferences(p.Provider, p); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	// Policy swapper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			name, level := "vB", privacy.Level(3)
			if i%2 == 1 {
				name, level = "vA", 2
			}
			if _, err := db.SetPolicy(mkPolicy(name, level)); err != nil {
				t.Errorf("set policy: %v", err)
				return
			}
		}
	}()
	// Certifiers and self-auditors.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := db.Certify(0.5); err != nil {
					t.Errorf("certify: %v", err)
					return
				}
				if _, err := db.CertifySummary(0.5); err != nil {
					t.Errorf("summary: %v", err)
					return
				}
				if _, err := db.SelfAudit(pop[(w*rounds+i)%len(pop)].Provider); err != nil {
					t.Errorf("self audit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	requireCertEquiv(t, db, 1, "post-stress")
}
