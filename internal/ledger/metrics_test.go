package ledger

import (
	"testing"

	"repro/internal/population"
)

// TestMetricsCounters pins the instrumentation to the memoization
// semantics: a repeated upsert with an unchanged version is a hit, a
// version bump is a miss plus a delta apply, a batch counts one miss per
// item, and a table rebuild counts once however wide its fan-out.
// Counters live in the shared default registry, so the test asserts
// deltas, not absolutes.
func TestMetricsCounters(t *testing.T) {
	a, gen := testAssessor(t, 11, 2)
	pop := population.PrefsOf(gen.Generate(10))
	tab := newTable(a)
	hits0, misses0 := mMemoHits.Value(), mMemoMisses.Value()
	applies0, rebuilds0 := mDeltaApplies.Value(), mRebuilds.Value()

	for i, p := range pop {
		tab.upsert(p, uint64(i+1))
	}
	if got := mMemoMisses.Value() - misses0; got != 10 {
		t.Errorf("first-time upserts: misses moved %d, want 10", got)
	}
	if got := mDeltaApplies.Value() - applies0; got != 10 {
		t.Errorf("first-time upserts: delta applies moved %d, want 10", got)
	}

	// Same versions again: pure memo hits, no new applies.
	for i, p := range pop {
		tab.upsert(p, uint64(i+1))
	}
	if got := mMemoHits.Value() - hits0; got != 10 {
		t.Errorf("repeat upserts: hits moved %d, want 10", got)
	}
	if got := mDeltaApplies.Value() - applies0; got != 10 {
		t.Errorf("repeat upserts grew delta applies to %d, want 10", got)
	}

	// A version bump is a miss + apply.
	tab.upsert(pop[0], 99)
	if got := mMemoMisses.Value() - misses0; got != 11 {
		t.Errorf("version bump: misses moved %d, want 11", got)
	}

	// A batch counts one miss per item; a rebuild counts once.
	batch := make([]Item, 0, len(pop))
	for i, p := range pop {
		batch = append(batch, Item{Key: p.Provider, Prefs: p, Version: uint64(100 + i)})
	}
	tab.UpsertBatch(a, batch)
	if got := mMemoMisses.Value() - misses0; got != 21 {
		t.Errorf("batch: misses moved %d, want 21", got)
	}
	a2, _ := testAssessor(t, 11, 1)
	tab.Rebuild(a2)
	if got := mRebuilds.Value() - rebuilds0; got != 1 {
		t.Errorf("rebuilds moved %d, want 1", got)
	}

	// The rows gauge tracks this table (last mutator wins process-wide).
	if got := mRows.Value(); int(got) != tab.Len() {
		t.Errorf("rows gauge = %g, want %d", got, tab.Len())
	}
	tab.Remove(pop[0].Provider)
	if got := mRows.Value(); int(got) != tab.Len() {
		t.Errorf("rows gauge after remove = %g, want %d", got, tab.Len())
	}
}
