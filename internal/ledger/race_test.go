package ledger

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/population"
	"repro/internal/privacy"
)

// TestConcurrentLedger hammers the Ledger wrapper with parallel upserts,
// batches, rebuilds and snapshots; run under -race (scripts/ci.sh does).
// After the dust settles the table must equal a fresh full assessment.
func TestConcurrentLedger(t *testing.T) {
	a1, gen := testAssessor(t, 31, 2)
	a2, _ := testAssessor(t, 31, 3)
	pop := population.PrefsOf(gen.Generate(120))
	_, gen2 := testAssessor(t, 77, 2)
	edits := population.PrefsOf(gen2.Generate(120))

	l, err := New(a1, 1)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, len(pop))
	for i, p := range pop {
		items[i] = Item{Key: p.Provider, Prefs: p}
	}
	l.UpsertBatch(items)

	var wg sync.WaitGroup
	const rounds = 40
	// Editors: re-upsert providers with edited preferences.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := edits[(w*rounds+i)%len(edits)]
				l.UpsertCompiled(p.Provider, p, nil, 0)
			}
		}(w)
	}
	// Batch re-loader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p := pop[i%7]
			l.UpsertBatch([]Item{{Key: p.Provider, Prefs: p}})
		}
	}()
	// Rebuilder: swap policy back and forth.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				l.Rebuild(a2, uint64(2+i))
			} else {
				l.Rebuild(a1, uint64(2+i))
			}
		}
	}()
	// Readers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if rep := l.Snapshot(); rep.N != len(pop) {
					t.Errorf("snapshot N = %d, want %d", rep.N, len(pop))
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced: one final rebuild pins every row to a1, and the table must
	// match assessing whatever preferences survived (white-box: read them
	// straight out of the table, in key order).
	l.Rebuild(a1, 100)
	snap := l.Snapshot()
	survivors := make([]*privacy.Prefs, 0, len(pop))
	for _, r := range l.table.Rows() {
		survivors = append(survivors, r.Prefs)
	}
	want := a1.AssessPopulation(survivors)
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("post-stress snapshot inconsistent: N=%d PW=%g total=%g vs recompute PW=%g total=%g",
			snap.N, snap.PW, snap.TotalViolations, want.PW, want.TotalViolations)
	}
}
