package ledger

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/analysis/floatutil"
	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/privacy"
)

// testAssessor builds an assessor over two attributes plus a generator for
// randomized provider populations.
func testAssessor(t testing.TB, seed uint64, level privacy.Level) (*core.Assessor, *population.Generator) {
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
	hp := privacy.NewHousePolicy(fmt.Sprintf("test-l%d", level))
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
	hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
	a, err := core.NewAssessor(hp, gen.AttributeSensitivities(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, gen
}

// table is a Table with the assessor it upserts against (these tests run
// on one goroutine, so no lock).
type table struct {
	a *core.Assessor
	*Table
}

func newTable(a *core.Assessor) *table { return &table{a: a, Table: NewTable()} }

func (t *table) upsert(p *privacy.Prefs, version uint64) core.ProviderReport {
	return t.Upsert(t.a, Item{Key: p.Provider, Prefs: p, Compiled: t.a.Compile(p), Version: version})
}

func (t *table) snapshot() core.PopulationReport { return Assemble(t.Rows()) }

// fanOutWidths are the GOMAXPROCS values the fan-out paths (batch upsert,
// rebuild) are pinned at: serial, an uneven split and more ranges than
// this box has CPUs.
var fanOutWidths = []int{1, 3, 8}

// setProcs sets GOMAXPROCS, the fan-out width, for the rest of the test.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sortedPop returns the population sorted the way the table keys it.
func sortedPop(pop []*privacy.Prefs) []*privacy.Prefs {
	out := append([]*privacy.Prefs(nil), pop...)
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

func TestNewNilAssessor(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Fatal("nil assessor should be rejected")
	}
	a, _ := testAssessor(t, 1, 2)
	if l, err := NewSharded(a, 1, -1); err != nil || l == nil {
		t.Fatalf("NewSharded ignores its shard count: err = %v", err)
	}
}

// TestSnapshotMatchesFullAssessment pins the assembled table to the direct
// AssessPopulation result over the same sorted population, including the
// bit-exact float total.
func TestSnapshotMatchesFullAssessment(t *testing.T) {
	a, gen := testAssessor(t, 7, 2)
	pop := population.PrefsOf(gen.Generate(137))
	want := a.AssessPopulation(sortedPop(pop))
	tab := newTable(a)
	for i, p := range pop {
		tab.upsert(p, uint64(i+1))
	}
	if got := tab.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot diverges from full assessment:\ngot  %+v\nwant %+v", got, want)
	}
	sum := tab.Partial()
	if sum.N != want.N || sum.ViolatedCount != want.ViolatedCount || sum.DefaultCount != want.DefaultCount {
		t.Errorf("summary counts = %+v, want %+v", sum, want)
	}
	if !floatutil.Eq(sum.PW(), want.PW) || !floatutil.Eq(sum.PDefault(), want.PDefault) {
		t.Errorf("summary probabilities = %g/%g, want %g/%g", sum.PW(), sum.PDefault(), want.PW, want.PDefault)
	}
	if !floatutil.Eq(sum.TotalViolations, want.TotalViolations) {
		t.Errorf("summary total = %g, want %g", sum.TotalViolations, want.TotalViolations)
	}
	if got := tab.Len(); got != len(pop) {
		t.Errorf("row count = %d, want %d", got, len(pop))
	}
}

// TestUpsertRemoveMaintainsAggregates applies edits and removals and checks
// the running aggregates stay consistent with a fresh recompute.
func TestUpsertRemoveMaintainsAggregates(t *testing.T) {
	a, gen := testAssessor(t, 11, 2)
	pop := population.PrefsOf(gen.Generate(60))
	tab := newTable(a)
	version := uint64(0)
	for _, p := range pop {
		version++
		tab.upsert(p, version)
	}

	// Edit a third of the population with fresh tuples (new generator seed,
	// same provider names), remove every tenth provider.
	_, gen2 := testAssessor(t, 999, 2)
	edited := population.PrefsOf(gen2.Generate(60))
	live := map[string]*privacy.Prefs{}
	for _, p := range pop {
		live[p.Provider] = p
	}
	for i, p := range edited {
		if i%3 == 0 {
			version++
			tab.upsert(p, version)
			live[p.Provider] = p
		}
	}
	for i, p := range pop {
		if i%10 == 0 {
			if !tab.Remove(p.Provider) {
				t.Fatalf("remove %q reported absent", p.Provider)
			}
			delete(live, p.Provider)
		}
	}
	if tab.Remove("nobody") {
		t.Error("removing an absent provider should report false")
	}

	var rest []*privacy.Prefs
	for _, p := range live {
		rest = append(rest, p)
	}
	want := a.AssessPopulation(sortedPop(rest))
	got := tab.snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after edits+removals snapshot diverges:\ngot  N=%d PW=%g total=%g\nwant N=%d PW=%g total=%g",
			got.N, got.PW, got.TotalViolations, want.N, want.PW, want.TotalViolations)
	}
	sum := tab.Partial()
	if sum.N != want.N || sum.ViolatedCount != want.ViolatedCount || sum.DefaultCount != want.DefaultCount {
		t.Errorf("summary counts = %+v, want counts from %+v", sum, want)
	}
	if !floatutil.Eq(sum.TotalViolations, want.TotalViolations) {
		t.Errorf("running total = %g, want ≈ %g", sum.TotalViolations, want.TotalViolations)
	}
	if got := tab.Len(); got != len(rest) {
		t.Errorf("row count = %d, want %d", got, len(rest))
	}
}

// TestUpsertMemoizes proves a row already at the requested prefs version
// short-circuits re-assessment: re-upserting different preferences under an
// unchanged version returns the cached row.
func TestUpsertMemoizes(t *testing.T) {
	a, _ := testAssessor(t, 3, 2)
	s := NewTable()
	loud := privacy.NewPrefs("ada", 0.5)
	loud.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 0, Granularity: 0, Retention: 0})
	loud.Add("income", privacy.Tuple{Purpose: "service", Visibility: 0, Granularity: 0, Retention: 0})
	quiet := privacy.NewPrefs("ada", 0.5)
	quiet.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 4, Retention: 4})
	quiet.Add("income", privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 4, Retention: 4})

	first := s.Upsert(a, Item{Key: "ada", Prefs: loud, Version: 1})
	if !first.Violated {
		t.Fatal("zero-tuple prefs under a level-2 policy must be violated")
	}
	cached := s.Upsert(a, Item{Key: "ada", Prefs: quiet, Version: 1}) // same version: must NOT re-assess
	if !reflect.DeepEqual(cached, first) {
		t.Error("matching versions should return the memoized report")
	}
	fresh := s.Upsert(a, Item{Key: "ada", Prefs: quiet, Compiled: a.Compile(quiet), Version: 2}) // bumped version: must re-assess
	if fresh.Violated {
		t.Error("version bump should have recomputed against the new prefs")
	}
	r, ok := s.Get("ada")
	if !ok || r.Prefs != quiet || r.Version != 2 || r.Compiled.PrefsVersion != 2 {
		t.Errorf("row after re-assessment = %+v", r)
	}
	if s.Len() != 1 {
		t.Errorf("row count = %d, want 1", s.Len())
	}
}

// TestRebuildSwapsPolicy rebuilds against a wider policy at every fan-out
// width and checks the rows, their compiled columns and the aggregates all
// moved to the new assessment, the partial re-summed in key order.
func TestRebuildSwapsPolicy(t *testing.T) {
	a1, gen := testAssessor(t, 19, 1)
	pop := population.PrefsOf(gen.Generate(80))
	a2, _ := testAssessor(t, 19, 4) // maximally wide: strictly more violations
	want := a2.AssessPopulation(sortedPop(pop))
	for _, procs := range fanOutWidths {
		setProcs(t, procs)
		tab := newTable(a1)
		for i, p := range pop {
			tab.upsert(p, uint64(i+1))
		}
		tab.Rebuild(a2)
		got := tab.snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("procs=%d: rebuild diverges: got PW=%g total=%g, want PW=%g total=%g",
				procs, got.PW, got.TotalViolations, want.PW, want.TotalViolations)
		}
		r, ok := tab.Get(pop[0].Provider)
		if !ok || !reflect.DeepEqual(r.Report, want.Providers[indexOf(want, pop[0].Provider)]) {
			t.Errorf("procs=%d: per-provider row not rebuilt", procs)
		}
		if !r.Compiled.CurrentFor(a2) || r.Version != 1 || r.Compiled.PrefsVersion != 1 {
			t.Errorf("procs=%d: rebuilt row: compiled current=%v version=%d", procs, r.Compiled.CurrentFor(a2), r.Version)
		}
		sum := tab.Partial()
		// Re-summed in key order, exactly as AssessPopulation sums.
		if sum.N != want.N || sum.ViolatedCount != want.ViolatedCount || math.Float64bits(sum.TotalViolations) != math.Float64bits(want.TotalViolations) {
			t.Errorf("procs=%d: rebuilt partial %+v disagrees with %+v", procs, sum, want)
		}
	}
}

func indexOf(rep core.PopulationReport, provider string) int {
	for i := range rep.Providers {
		if rep.Providers[i].Provider == provider {
			return i
		}
	}
	return -1
}

// TestUpsertBatchMatchesSequential pins the batch path (assessment across
// the fan-out, sorted merge of new keys, last item wins for a repeated
// key) to the serial path at every fan-out width.
func TestUpsertBatchMatchesSequential(t *testing.T) {
	a, gen := testAssessor(t, 23, 2)
	pop := population.PrefsOf(gen.Generate(150))
	n := len(pop)
	// The batch repeats its last key, which must win as in serial order.
	pop = append(pop, privacy.NewPrefs(pop[n-1].Provider, 0.5))
	serial := newTable(a)
	for i, p := range pop {
		serial.upsert(p, uint64(i+1))
	}
	for _, procs := range fanOutWidths {
		setProcs(t, procs)
		batch := newTable(a)
		var items []Item
		for i, p := range pop {
			if i < 20 { // seeded one by one, so the batch merges into a non-empty key list
				batch.upsert(p, uint64(i+1))
			} else {
				items = append(items, Item{Key: p.Provider, Prefs: p, Compiled: a.Compile(p), Version: uint64(i + 1)})
			}
		}
		batch.UpsertBatch(a, items)
		if !reflect.DeepEqual(batch.snapshot(), serial.snapshot()) || batch.Partial() != serial.Partial() {
			t.Errorf("procs=%d: batch and serial upserts disagree", procs)
		}
		if keys := batch.Keys(); !sort.StringsAreSorted(keys) || len(keys) != n || batch.Len() != n {
			t.Errorf("procs=%d: batch key list: sorted=%v len=%d count=%d, want %d", procs, sort.StringsAreSorted(keys), len(keys), batch.Len(), n)
		}
	}
}

// TestWouldDefaultSorted checks the defaulting rows come out of a snapshot
// in sorted key order, not upsert order.
func TestWouldDefaultSorted(t *testing.T) {
	a, _ := testAssessor(t, 5, 4)
	tab := newTable(a)
	for _, name := range []string{"zoe", "ada", "mel"} {
		p := privacy.NewPrefs(name, 0) // any positive violation defaults
		p.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 0, Granularity: 0, Retention: 0})
		tab.upsert(p, 1)
	}
	var got []string
	for _, r := range tab.snapshot().Providers {
		if r.Defaults {
			got = append(got, r.Provider)
		}
	}
	want := []string{"ada", "mel", "zoe"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaulting rows = %v, want %v", got, want)
	}
}

// TestReportMiss covers the absent-provider read and the empty table.
func TestReportMiss(t *testing.T) {
	a, _ := testAssessor(t, 2, 2)
	tab := newTable(a)
	if _, ok := tab.Get("ghost"); ok {
		t.Error("absent provider should miss")
	}
	if s := tab.Partial(); s.N != 0 || !floatutil.Zero(s.PW()) {
		t.Errorf("empty summary = %+v", s)
	}
	if rep := tab.snapshot(); rep.N != 0 || len(rep.Providers) != 0 {
		t.Errorf("empty snapshot = %+v", rep)
	}
}
