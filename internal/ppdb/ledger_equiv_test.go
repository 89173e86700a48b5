package ppdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/analysis/floatutil"
	"repro/internal/core"
	"repro/internal/policydsl"
	"repro/internal/population"
	"repro/internal/privacy"
)

// equivGenerator builds a randomized provider population over two
// attributes for one seed.
func equivGenerator(t testing.TB, seed uint64) *population.Generator {
	t.Helper()
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// equivPolicy builds a house policy at one level over the two attributes.
func equivPolicy(name string, level privacy.Level) *privacy.HousePolicy {
	hp := privacy.NewHousePolicy(name)
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
	hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
	return hp
}

// mustJSON marshals a certification for byte-level comparison.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// raceEnabled is set under the race detector (racedetector_test.go),
// whose sync.Pool drops items at random, so pooled-buffer allocation
// counts do not hold there.
var raceEnabled bool

// oracleCert is the certification recomputed with no stored state: a
// fresh assessor for the live policy and Σ, AssessPopulation over the
// registered preferences in key order, and the verdict around it. It
// reads neither the rows' columns nor their totals.
func oracleCert(t testing.TB, db *DB, alpha float64) *Certification {
	t.Helper()
	a, err := core.NewAssessor(db.Policy(), db.AttrSens(), db.opts)
	if err != nil {
		t.Fatal(err)
	}
	return certification(db.Now(), db.Policy().Name, alpha, a.AssessPopulation(db.Providers()))
}

// requireCertEquiv asserts Certify is byte-identical to the oracle —
// PW, PDefault, per-provider reports and WouldDefault all included — and
// that the O(1) summary, read from the rows' running totals, agrees with
// it.
func requireCertEquiv(t *testing.T, db *DB, alpha float64, stage string) {
	t.Helper()
	cert, err := db.Certify(alpha)
	if err != nil {
		t.Fatalf("%s: Certify: %v", stage, err)
	}
	oracle := oracleCert(t, db, alpha)
	a, b := mustJSON(t, cert), mustJSON(t, oracle)
	if !bytes.Equal(a, b) {
		t.Errorf("%s: certification diverges from the recompute\nCertify: %.300s\noracle:  %.300s", stage, a, b)
	}
	// The summary must agree with the oracle on every exact quantity; its
	// running float total is allowed last-ulp drift.
	sum, err := db.CertifySummary(alpha)
	if err != nil {
		t.Fatalf("%s: CertifySummary: %v", stage, err)
	}
	rep := oracle.Report
	if sum.N != rep.N || sum.ViolatedCount != rep.ViolatedCount || sum.DefaultCount != rep.DefaultCount ||
		!floatutil.Eq(sum.PW, rep.PW) || !floatutil.Eq(sum.PDefault, rep.PDefault) ||
		sum.IsAlphaPPDB != oracle.IsAlphaPPDB {
		t.Errorf("%s: summary %+v disagrees with the recompute N=%d violated=%d defaulted=%d PW=%g",
			stage, sum, rep.N, rep.ViolatedCount, rep.DefaultCount, rep.PW)
	}
	if !floatutil.Eq(sum.TotalViolations, rep.TotalViolations) {
		t.Errorf("%s: summary total %g drifted beyond tolerance from %g", stage, sum.TotalViolations, rep.TotalViolations)
	}
}

// TestLedgerCertifyEquivalence drives randomized populations through the
// full mutation surface — bulk registration, single registrations,
// self-service edits, removals, policy swaps, default enforcement — and
// requires the certification to stay byte-identical to the stateless
// recompute, and the summary to agree with it, at every step.
func TestLedgerCertifyEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 42, 2011} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			gen := equivGenerator(t, seed)
			pop := population.PrefsOf(gen.Generate(300))
			db, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities()})
			if err != nil {
				t.Fatal(err)
			}
			// Bulk cold build.
			if err := db.RegisterProviders(pop[:250]); err != nil {
				t.Fatal(err)
			}
			// Serial incremental adds.
			for _, p := range pop[250:] {
				if err := db.RegisterProvider(p); err != nil {
					t.Fatal(err)
				}
			}
			requireCertEquiv(t, db, 0.25, "after registration")

			// Self-service edits: a different generator seed produces new
			// tuples for the same provider names.
			edits := population.PrefsOf(equivGenerator(t, seed+7000).Generate(300))
			for i, p := range edits {
				if i%5 != 0 {
					continue
				}
				if err := db.UpdatePreferences(p.Provider, p); err != nil {
					t.Fatal(err)
				}
			}
			requireCertEquiv(t, db, 0.25, "after preference edits")

			// Removals.
			for i, p := range pop {
				if i%17 == 0 {
					if _, err := db.RemoveProvider(p.Provider); err != nil {
						t.Fatal(err)
					}
				}
			}
			requireCertEquiv(t, db, 0.25, "after removals")

			// Policy swap: the Sec. 9 what-if, a cold parallel rebuild.
			change, err := db.SetPolicy(equivPolicy("v2", 3))
			if err != nil {
				t.Fatal(err)
			}
			if change.DeltaPW < 0 {
				t.Errorf("widening the policy should not lower P(W): ΔPW = %g", change.DeltaPW)
			}
			requireCertEquiv(t, db, 0.25, "after policy swap")

			// Default enforcement shrinks the population.
			if _, _, err := db.EnforceDefaults(); err != nil {
				t.Fatal(err)
			}
			requireCertEquiv(t, db, 0.25, "after default enforcement")
		})
	}
}

// TestPolicyDeltaMatchesRecompute pins SetPolicy's what-if deltas, read
// from the table's running aggregate around the rebuild, to stateless
// recomputes before and after the swap.
func TestPolicyDeltaMatchesRecompute(t *testing.T) {
	gen := equivGenerator(t, 99)
	pop := population.PrefsOf(gen.Generate(120))
	db, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProviders(pop); err != nil {
		t.Fatal(err)
	}
	before := oracleCert(t, db, 0.5)
	change, err := db.SetPolicy(equivPolicy("v2", 3))
	if err != nil {
		t.Fatal(err)
	}
	after := oracleCert(t, db, 0.5)
	wantPW := after.Report.PW - before.Report.PW
	wantPDefault := after.Report.PDefault - before.Report.PDefault
	if !floatutil.Eq(change.DeltaPW, wantPW) || !floatutil.Eq(change.DeltaPDefault, wantPDefault) {
		t.Errorf("policy-change deltas (%g, %g) disagree with recomputes (%g, %g)",
			change.DeltaPW, change.DeltaPDefault, wantPW, wantPDefault)
	}
	if floatutil.Zero(wantPW) {
		t.Error("fixture swap moved no provider; the delta check is vacuous")
	}
	requireCertEquiv(t, db, 0.5, "after policy swap")
}

// TestSetPolicySwapBytesPerProvider pins what a policy swap allocates on a
// perfbench-shaped store: every row is recompiled and its totals assessed
// under the new policy, and no pair conflict is built, so one swap stays
// under 1.5 KB a provider.
func TestSetPolicySwapBytesPerProvider(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random; Compile's scratch is pooled")
	}
	const n = 2000
	var pols [2]*policydsl.Document
	for i, vis := range []string{"third-party", "world"} {
		doc, err := policydsl.Parse(population.BenchPolicyDSL(fmt.Sprintf("bench-%d", i), vis))
		if err != nil {
			t.Fatal(err)
		}
		pols[i] = doc
	}
	gen, err := population.NewGenerator(population.BenchConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the DSL, so the preferences are shaped as a
	// server that ingested them holds them.
	corpus, err := policydsl.Parse(policydsl.Render(&policydsl.Document{Providers: population.PrefsOf(gen.Generate(n))}))
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Config{Policy: pols[0].Policy, AttrSens: pols[0].AttrSens})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProviders(corpus.Providers); err != nil {
		t.Fatal(err)
	}
	swap := func(i int) {
		if _, err := db.SetPolicy(pols[i].Policy); err != nil {
			t.Fatal(err)
		}
	}
	swap(1) // warm the compile scratch pool
	swap(0)
	const swaps = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= swaps; i++ {
		swap(i % 2)
	}
	runtime.ReadMemStats(&after)
	perProvider := float64(after.TotalAlloc-before.TotalAlloc) / swaps / n
	t.Logf("a policy swap allocates %.0f B per provider", perProvider)
	if perProvider > 1536 {
		t.Errorf("a policy swap allocates %.0f B per provider; want under 1.5 KB", perProvider)
	}
}
