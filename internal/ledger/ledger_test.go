package ledger

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
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

func (t *table) upsert(p *privacy.Prefs) {
	t.Upsert(t.a, []Item{{Key: p.Provider, Prefs: p, Compiled: t.a.Compile(p)}})
}

// rebuild swaps the table's assessor, as an owner's policy swap does.
func (t *table) rebuild(a *core.Assessor) {
	t.a = a
	t.Rebuild(a)
}

func (t *table) snapshot() core.PopulationReport { return Assemble(t.a, t.Rows()) }

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
	for _, p := range pop {
		tab.upsert(p)
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
	for _, p := range pop {
		tab.upsert(p)
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
			tab.upsert(p)
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
		for _, p := range pop {
			tab.upsert(p)
		}
		tab.rebuild(a2)
		got := tab.snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("procs=%d: rebuild diverges: got PW=%g total=%g, want PW=%g total=%g",
				procs, got.PW, got.TotalViolations, want.PW, want.TotalViolations)
		}
		r, ok := tab.Get(pop[0].Provider)
		if wr := want.Providers[indexOf(want, pop[0].Provider)]; !ok ||
			r.Totals != (core.Totals{Violation: wr.Violation, Violated: wr.Violated, Defaults: wr.Defaults}) {
			t.Errorf("procs=%d: per-provider row not rebuilt", procs)
		}
		if !r.Compiled.CurrentFor(a2) {
			t.Errorf("procs=%d: rebuilt row's columns are not compiled against the new policy", procs)
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

// TestUpsertBatchMatchesSequential pins a batch upsert (assessment across
// the fan-out, the merge of new keys from the back, last item wins for a
// repeated key) to one-item upserts at every fan-out width. Each case
// seeds the table one item at a time, then upserts one batch whose new
// keys sort after, before or among the seeded ones.
func TestUpsertBatchMatchesSequential(t *testing.T) {
	a, gen := testAssessor(t, 23, 2)
	pop := population.PrefsOf(gen.Generate(150)) // keys ascend with the index
	n := len(pop)
	var evens, odds []*privacy.Prefs
	for i, p := range pop {
		if i%2 == 0 {
			evens = append(evens, p)
		} else {
			odds = append(odds, p)
		}
	}
	descending := slices.Clone(pop[:n-20])
	slices.Reverse(descending)
	// A new key (listed three times) and a seeded key repeat inside the
	// batch; the last item of each must win, as in serial order.
	repeated := append(slices.Clone(pop[20:]), privacy.NewPrefs(pop[n-1].Provider, 0.5),
		privacy.NewPrefs(pop[0].Provider, 0.5), privacy.NewPrefs(pop[n-1].Provider, 0.25))
	cases := []struct {
		name        string
		seed, batch []*privacy.Prefs
	}{
		{"all-after", pop[:20], pop[20:]},
		{"all-before", pop[n-20:], descending},
		{"one-at-0", pop[1:], pop[:1]},
		{"interleaved", evens, odds},
		{"repeated", pop[:20], repeated},
	}
	for _, tc := range cases {
		serial := newTable(a)
		distinct := map[string]bool{}
		for _, p := range append(slices.Clone(tc.seed), tc.batch...) {
			serial.upsert(p)
			distinct[p.Provider] = true
		}
		for _, procs := range fanOutWidths {
			setProcs(t, procs)
			batch := newTable(a)
			for _, p := range tc.seed {
				batch.upsert(p)
			}
			items := make([]Item, len(tc.batch))
			for i, p := range tc.batch {
				items[i] = Item{Key: p.Provider, Prefs: p}
			}
			batch.Upsert(a, items)
			if !reflect.DeepEqual(batch.snapshot(), serial.snapshot()) || batch.Partial() != serial.Partial() {
				t.Errorf("%s, procs=%d: batch and serial upserts disagree", tc.name, procs)
			}
			_, keys := batch.Page("", 0, batch.Len())
			ascending := slices.IsSortedFunc(keys, func(x, y string) int {
				if x < y {
					return -1
				}
				return 1 // equal neighbours are a duplicated key
			})
			if !ascending || len(keys) != len(distinct) || batch.Len() != len(distinct) {
				t.Errorf("%s, procs=%d: batch key list: strictly ascending=%v len=%d count=%d, want %d",
					tc.name, procs, ascending, len(keys), batch.Len(), len(distinct))
			}
		}
	}
}

// raceEnabled is set under the race detector (racedetector_test.go),
// whose sync.Pool drops items at random, so pooled-buffer allocation
// counts do not hold there.
var raceEnabled bool

// TestUpsertAllocsFlat pins the one-item upsert of a new key to a cost
// that does not grow with the table: the same number of allocations into
// 1k rows as into 20k, and, with the key list's room reserved, the same
// bytes up to a margin far below one copy of the list — the merge moves
// keys in place. Every key sorts before the table's, so each insert moves
// the whole list.
func TestUpsertAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random; Compile's scratch is pooled")
	}
	a, gen := testAssessor(t, 41, 2)
	const runs = 50
	cost := func(n int) (allocs, bytes float64) {
		tab := newTable(a)
		items := make([]Item, n)
		for i, p := range population.PrefsOf(gen.Generate(n)) {
			items[i] = Item{Key: p.Provider, Prefs: p}
		}
		tab.Upsert(a, items)
		fresh := make([][]Item, 2*runs+1) // AllocsPerRun adds one warm-up run
		for i := range fresh {
			p := gen.Provider(fmt.Sprintf("a-%04d", i)).Prefs
			fresh[i] = []Item{{Key: p.Provider, Prefs: p}}
		}
		tab.keys = slices.Grow(tab.keys, len(fresh))
		next := 0
		upsert := func() {
			tab.Upsert(a, fresh[next])
			next++
		}
		allocs = testing.AllocsPerRun(runs, upsert)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			upsert()
		}
		runtime.ReadMemStats(&after)
		if tab.Len() != n+len(fresh) {
			t.Fatalf("n=%d: %d rows after the upserts, want %d", n, tab.Len(), n+len(fresh))
		}
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(1000)
	largeAllocs, largeBytes := cost(20000)
	t.Logf("one-item upsert: %.0f allocs and %.0f B at 1k rows, %.0f allocs and %.0f B at 20k", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs != smallAllocs {
		t.Errorf("a one-item upsert allocates %.0f times into 1k rows and %.0f into 20k; want the same", smallAllocs, largeAllocs)
	}
	// One copy of a 20k-key list is 320 KB; the margin absorbs the map's
	// occasional table split.
	if largeBytes > smallBytes+16<<10 {
		t.Errorf("a one-item upsert allocates %.0f B into 1k rows and %.0f B into 20k; want the same within 16 KiB", smallBytes, largeBytes)
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
		tab.upsert(p)
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
