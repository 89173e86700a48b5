package ppdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/wal"
	"repro/internal/whatif"
)

// whatifPopulation hand-rolls a deterministic population over the
// "common"/"rare" two-attribute policy below: every provider states
// preferences on common, every tenth also on rare.
func whatifPopulation(n int) []*privacy.Prefs {
	pop := make([]*privacy.Prefs, 0, n)
	for i := 0; i < n; i++ {
		p := privacy.NewPrefs(fmt.Sprintf("p%05d", i), float64(5+i%40))
		p.Add("common", privacy.Tuple{Purpose: "service", Visibility: privacy.Level(1 + i%2), Granularity: 2, Retention: 2})
		if i%10 == 0 {
			p.Add("rare", privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 1, Retention: privacy.Level(1 + i%3)})
		}
		pop = append(pop, p)
	}
	return pop
}

func whatifPolicy() *privacy.HousePolicy {
	hp := privacy.NewHousePolicy("base")
	hp.Add("common", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2})
	hp.Add("rare", privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 1, Retention: 1})
	return hp
}

func whatifDB(t *testing.T, opts core.Options, n int) (*DB, []*privacy.Prefs) {
	t.Helper()
	db, err := New(Config{
		Policy:   whatifPolicy(),
		AttrSens: privacy.AttributeSensitivities{"common": 2, "rare": 6},
		Options:  opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	pop := whatifPopulation(n)
	if err := db.RegisterProviders(pop); err != nil {
		t.Fatal(err)
	}
	return db, pop
}

// TestWhatIfMatchesOracle checks the wired-up DB path (row capture,
// ledger memo, in-place evaluation) against a from-scratch oracle: apply
// the diff to clones and assess both populations in global sorted order.
func TestWhatIfMatchesOracle(t *testing.T) {
	for _, opts := range []core.Options{{}, {DisableImplicitZero: true}} {
		name := "paper-model"
		if opts.DisableImplicitZero {
			name = "no-implicit-zero"
		}
		t.Run(name, func(t *testing.T) {
			db, pop := whatifDB(t, opts, 300)
			req := &whatif.Request{
				Diff: whatif.Diff{
					Retarget:    []whatif.TupleSpec{{Attribute: "common", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3}},
					Sensitivity: []whatif.SensitivityChange{{Attribute: "rare", Value: 9}},
				},
				U: 10, T: 1,
			}
			resp, err := db.WhatIf(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.PolicyVersion != 1 || resp.ShadowVersion != 1|whatif.ShadowVersionBit {
				t.Errorf("versions = %d / %#x", resp.PolicyVersion, resp.ShadowVersion)
			}

			sens := privacy.AttributeSensitivities{"common": 2, "rare": 6}
			shadowPol, shadowSens, _, err := whatif.ApplyDiff(whatifPolicy(), sens, &req.Diff, "oracle", db.scales)
			if err != nil {
				t.Fatal(err)
			}
			liveA, err := core.NewAssessor(whatifPolicy(), sens, opts)
			if err != nil {
				t.Fatal(err)
			}
			shadowA, err := core.NewAssessor(shadowPol, shadowSens, opts)
			if err != nil {
				t.Fatal(err)
			}
			sorted := make([]*privacy.Prefs, len(pop))
			copy(sorted, pop)
			sort.Slice(sorted, func(i, j int) bool {
				return strings.ToLower(sorted[i].Provider) < strings.ToLower(sorted[j].Provider)
			})
			wantCur := liveA.AssessPopulation(sorted)
			wantProp := shadowA.AssessPopulation(sorted)
			if resp.Current.N != wantCur.N || resp.Current.TotalViolations != wantCur.TotalViolations ||
				resp.Current.DefaultCount != wantCur.DefaultCount || resp.Current.PW != wantCur.PW {
				t.Errorf("current %+v != oracle %+v", resp.Current, wantCur)
			}
			if resp.Proposed.N != wantProp.N || resp.Proposed.TotalViolations != wantProp.TotalViolations ||
				resp.Proposed.DefaultCount != wantProp.DefaultCount || resp.Proposed.PW != wantProp.PW {
				t.Errorf("proposed %+v != oracle %+v", resp.Proposed, wantProp)
			}
			// The current-side numbers must also agree with certification.
			cert, err := db.CertifySummary(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if cert.N != resp.Current.N || cert.TotalViolations != resp.Current.TotalViolations ||
				cert.PW != resp.Current.PW || cert.DefaultCount != resp.Current.DefaultCount {
				t.Errorf("what-if current %+v disagrees with certification %+v", resp.Current, cert)
			}
		})
	}
}

// TestWhatIfAllocsFlat pins the pair-free shadow: under the shipped
// implicit zero a retarget re-assesses every provider, yet DB.WhatIf
// allocates the same at 1k and 10k providers, within a small constant —
// nothing per provider.
func TestWhatIfAllocsFlat(t *testing.T) {
	req := &whatif.Request{
		Diff: whatif.Diff{Retarget: []whatif.TupleSpec{{Attribute: "common", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3}}},
		U:    10, T: 1,
	}
	allocs := func(n int) float64 {
		db, _ := whatifDB(t, core.Options{}, n)
		resp, err := db.WhatIf(req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.GlobalFallback || resp.Affected != n || resp.Proposed.ViolatedCount == 0 {
			t.Fatalf("n=%d: fallback=%v affected=%d violated=%d; want every provider re-assessed, some violated",
				n, resp.GlobalFallback, resp.Affected, resp.Proposed.ViolatedCount)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := db.WhatIf(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large > small+16 {
		t.Errorf("DB.WhatIf allocates %.0f objects at 1k providers and %.0f at 10k; want the same within 16", small, large)
	}
}

func TestWhatIfRejectsInvalidRequests(t *testing.T) {
	db, _ := whatifDB(t, core.Options{}, 10)
	if _, err := db.WhatIf(&whatif.Request{U: 1}); err == nil {
		t.Error("empty diff accepted")
	}
	bad := &whatif.Request{
		Diff: whatif.Diff{Sensitivity: []whatif.SensitivityChange{{Attribute: "nope", Value: 2}}},
		U:    1,
	}
	if _, err := db.WhatIf(bad); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestWhatIfNarrowDiffMemoReuse is the acceptance criterion: on a diff
// touching an attribute only ~10% of providers state preferences on, at
// least 90% of the population must be served from reused live reports with
// no global fallback.
func TestWhatIfNarrowDiffMemoReuse(t *testing.T) {
	db, pop := whatifDB(t, core.Options{DisableImplicitZero: true}, 1000)
	req := &whatif.Request{
		Diff: whatif.Diff{
			Retarget: []whatif.TupleSpec{{Attribute: "rare", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3}},
		},
		U: 10,
	}
	resp, err := db.WhatIf(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.GlobalFallback {
		t.Fatal("narrow diff fell back to global re-assessment")
	}
	if resp.Current.N != len(pop) {
		t.Fatalf("N = %d", resp.Current.N)
	}
	if resp.MemoReused < len(pop)*9/10 {
		t.Errorf("memo reuse %d/%d below the 90%% floor", resp.MemoReused, len(pop))
	}
	if resp.Affected != len(pop)/10 {
		t.Errorf("affected = %d, want the %d providers touching rare", resp.Affected, len(pop)/10)
	}
}

// dirBytes reads every regular file under dir, keyed by relative path.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWhatIfStormLeavesLiveStateUntouched is the tentpole's zero-mutation
// proof, in two phases. Phase 1 races concurrent what-if evaluations
// against live ingest purely to let the race detector chew on the locking.
// Phase 2 quiesces, captures the full durable state — snapshot bytes,
// certification and ledger aggregates, WAL high-water LSN — hammers the
// endpoint with thousands of concurrent evaluations, and demands the
// re-captured state be byte- and value-identical.
func TestWhatIfStormLeavesLiveStateUntouched(t *testing.T) {
	db, _ := whatifDB(t, core.Options{}, 300)
	if _, err := db.AttachWAL(wal.Options{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	wide := &whatif.Request{
		Diff: whatif.Diff{
			Retarget: []whatif.TupleSpec{{Attribute: "common", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3}},
		},
		U: 10, T: 2,
	}
	narrow := &whatif.Request{
		Diff: whatif.Diff{
			Retarget: []whatif.TupleSpec{{Attribute: "rare", Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2}},
		},
		U: 10, Detail: true,
	}

	// Phase 1: evaluations racing live ingest.
	stop := make(chan struct{})
	var raceWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		raceWG.Add(1)
		go func(w int) {
			defer raceWG.Done()
			req := wide
			if w%2 == 1 {
				req = narrow
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.WhatIf(req); err != nil {
					t.Errorf("what-if during ingest: %v", err)
					return
				}
			}
		}(w)
	}
	late := whatifPopulation(400)[300:]
	for _, p := range late {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	raceWG.Wait()

	// Phase 2: quiesce and capture.
	capture := func(dir string) (map[string][]byte, *CertificationSummary, interface{}, uint64) {
		if err := db.Save(dir); err != nil {
			t.Fatal(err)
		}
		cert, err := db.CertifySummary(0.5)
		if err != nil {
			t.Fatal(err)
		}
		db.mu.RLock()
		sum := db.table.Partial()
		db.mu.RUnlock()
		return dirBytes(t, dir), cert, sum, db.WALLastLSN()
	}
	dirA := filepath.Join(t.TempDir(), "before")
	bytesA, certA, ledA, lsnA := capture(dirA)

	evals := 2000
	workers := 8
	if testing.Short() {
		evals, workers = 200, 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := wide
			if w%2 == 1 {
				req = narrow
			}
			for i := 0; i < evals/workers; i++ {
				resp, err := db.WhatIf(req)
				if err != nil {
					t.Errorf("storm what-if: %v", err)
					return
				}
				if resp.Current.N != certA.N {
					t.Errorf("storm saw N = %d, want the quiesced %d", resp.Current.N, certA.N)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	dirB := filepath.Join(t.TempDir(), "after")
	bytesB, certB, ledB, lsnB := capture(dirB)

	if lsnA != lsnB {
		t.Errorf("storm advanced the WAL: LSN %d -> %d", lsnA, lsnB)
	}
	certB.At = certA.At // wall-independent but simulated time is frozen anyway
	if *certA != *certB {
		t.Errorf("certification drifted:\nbefore %+v\nafter  %+v", certA, certB)
	}
	if ledA != ledB {
		t.Errorf("ledger aggregates drifted:\nbefore %+v\nafter  %+v", ledA, ledB)
	}
	if len(bytesA) != len(bytesB) {
		t.Fatalf("snapshot file sets differ: %d vs %d files", len(bytesA), len(bytesB))
	}
	for rel, a := range bytesA {
		b, ok := bytesB[rel]
		if !ok {
			t.Errorf("snapshot file %s missing after storm", rel)
			continue
		}
		if string(a) != string(b) {
			t.Errorf("snapshot file %s not byte-identical after storm", rel)
		}
	}
}
