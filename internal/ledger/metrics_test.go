package ledger

import (
	"testing"

	"repro/internal/population"
)

// TestMetricsCounters pins the instrumentation: every upserted item is one
// assessment and one delta apply, a repeated upsert included, a batch
// counts once per item, and a table rebuild counts once however wide its
// fan-out. Counters live in the shared default registry, so the test
// asserts deltas, not absolutes.
func TestMetricsCounters(t *testing.T) {
	a, gen := testAssessor(t, 11, 2)
	pop := population.PrefsOf(gen.Generate(10))
	tab := newTable(a)
	misses0, applies0, rebuilds0 := mMemoMisses.Value(), mDeltaApplies.Value(), mRebuilds.Value()

	for _, p := range pop {
		tab.upsert(p)
	}
	if got := mMemoMisses.Value() - misses0; got != 10 {
		t.Errorf("first-time upserts: assessments moved %d, want 10", got)
	}
	if got := mDeltaApplies.Value() - applies0; got != 10 {
		t.Errorf("first-time upserts: delta applies moved %d, want 10", got)
	}

	// Upserting the same preferences again re-assesses.
	tab.upsert(pop[0])
	if got := mMemoMisses.Value() - misses0; got != 11 {
		t.Errorf("repeat upsert: assessments moved %d, want 11", got)
	}

	// A batch counts one per item; a rebuild counts once.
	batch := make([]Item, 0, len(pop))
	for _, p := range pop {
		batch = append(batch, Item{Key: p.Provider, Prefs: p})
	}
	tab.Upsert(a, batch)
	if got := mMemoMisses.Value() - misses0; got != 21 {
		t.Errorf("batch: assessments moved %d, want 21", got)
	}
	if got := mDeltaApplies.Value() - applies0; got != 21 {
		t.Errorf("batch: delta applies moved %d, want 21", got)
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
