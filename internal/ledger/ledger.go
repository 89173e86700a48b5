// Package ledger is the provider table certification reads: one immutable
// row per provider — its preferences, their compiled columns (DESIGN.md
// §13) and its core.Totals — plus one running core.Partial (N, Σ w_i,
// Σ default_i, Σ Violation_i). The paper's population quantities — P(W) =
// Σ w_i / N (Def. 2), P(Default) (Def. 5) and the house total Violations
// (Eq. 16) — are sums of independent per-provider terms, so a row enters
// the table one way: Upsert assesses its totals and moves the partial by
// its delta, and the population answer is read from the partial in O(1)
// instead of recomputed over N. Assemble, the certification, re-runs the
// kernel over the stored columns; no row holds a pair conflict.
//
// A Table has no lock of its own; its owner serializes access.
// internal/ppdb holds one Table under its own lock, so the store and the
// table are the same thing; cmd/ppdbaudit and the offline what-if build
// one directly. Ledger wraps a Table behind one lock for the benchmark's
// traced twin. Population work fans out over contiguous ranges of its
// input (core.FanOut, DESIGN.md §11) and reduces serially in order.
//
// Rows are current by construction. An upsert assesses every row it
// installs, and a policy swap (Rebuild) re-assesses every row while the
// owner excludes all readers, so no row carries a version. A row is
// immutable once installed: readers may keep the pointers Rows returns
// after the owner's lock is released.
//
// Exactness: the integer aggregates (and hence P(W) and P(Default), ratios
// of integers) are exact. The running float total drifts from a fresh sum
// by accumulated rounding (adds and subtracts in edit order), so a summary
// built from the partial is last-ulp approximate in TotalViolations.
// Assemble sums the rows in sorted key order, so a certification is
// bit-identical to a full recompute over the same sorted population.
package ledger

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/privacy"
)

// Instrumentation (DESIGN.md §10). Counters aggregate across every table
// in the process; the rows gauge is set by whichever table mutated last
// (one server process holds one live table). Hoisted once so the hot paths
// pay a single atomic op, not a registry lookup.
var (
	mMemoMisses = metrics.Default.Counter("ledger_memo_misses_total",
		"provider assessments by upsert")
	mDeltaApplies = metrics.Default.Counter("ledger_delta_applies_total",
		"row installs with O(1) aggregate maintenance")
	mRebuilds = metrics.Default.Counter("ledger_rebuilds_total",
		"full-table rebuilds (policy swaps)")
	mRows = metrics.Default.Gauge("ledger_rows",
		"provider rows held by the live provider table")
)

// Row is one provider's state. Immutable once installed.
type Row struct {
	Prefs *privacy.Prefs
	// Compiled is Prefs flattened against the policy the row was assessed
	// under, and Totals its assessment under that policy.
	Compiled *core.CompiledPrefs
	Totals   core.Totals
}

// Item is one upsert: a provider's canonical key, its preferences and,
// optionally, their columns compiled against the upserting assessor
// (core.Assessor.Compile); Upsert compiles an item without current ones.
type Item struct {
	Key      string
	Prefs    *privacy.Prefs
	Compiled *core.CompiledPrefs
	// Deprecated: rows carry no version; Version is ignored.
	Version uint64
}

// ItemsOf returns one item per preference set, keyed by
// privacy.ProviderKey of its provider name.
func ItemsOf(ps []*privacy.Prefs) []Item {
	items := make([]Item, len(ps))
	for i, p := range ps {
		items[i] = Item{Key: privacy.ProviderKey(p.Provider), Prefs: p}
	}
	return items
}

// Table is the provider table: the sorted keys, the rows by key and the
// running aggregate. It is not safe for concurrent use: readers need the
// owner's lock shared, and every mutation needs it exclusively.
type Table struct {
	byKey map[string]*Row
	keys  []string // sorted; kept in lockstep with byKey
	agg   core.Partial
	// scratch is the columnar-kernel arena of the upsert range that starts
	// at 0, which runs on the caller's goroutine when the fan-out is one
	// wide, so a one-item upsert starts with a warm arena.
	scratch core.Scratch
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byKey: make(map[string]*Row)}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.keys) }

// Get returns key's row.
func (t *Table) Get(key string) (*Row, bool) {
	r, ok := t.byKey[key]
	return r, ok
}

// Partial returns the running aggregate.
func (t *Table) Partial() core.Partial { return t.agg }

// Page counts the keys that start with prefix and copies at most limit of
// them from offset on. Those keys are one run of the sorted list, found by
// binary search.
func (t *Table) Page(prefix string, offset, limit int) (int, []string) {
	lo, _ := slices.BinarySearch(t.keys, prefix)
	n := sort.Search(len(t.keys)-lo, func(i int) bool { return !strings.HasPrefix(t.keys[lo+i], prefix) })
	offset = min(max(offset, 0), n)
	end := offset + min(max(limit, 0), n-offset)
	return n, append([]string(nil), t.keys[lo+offset:lo+end]...)
}

// Rows returns every row in sorted key order. The rows are immutable, so
// the caller may read them after releasing the owner's lock.
func (t *Table) Rows() []*Row {
	rows := make([]*Row, len(t.keys))
	for i, k := range t.keys {
		rows[i] = t.byKey[k]
	}
	return rows
}

// Upsert installs items — registrations and preference edits. One
// fan-out pass compiles each item that carries no current columns and
// assesses its totals; the rows then install
// serially in item order, each moving the partial by its delta, so a key
// listed twice keeps its last item. New keys are merged from the back into
// the grown key list: one new key moves the keys after it, as
// slices.Insert does, and the list allocates only when it grows.
func (t *Table) Upsert(a *core.Assessor, items []Item) {
	mMemoMisses.Add(uint64(len(items)))
	rows := make([]*Row, len(items))
	core.FanOut(len(items), func(lo, hi int) {
		sc := &t.scratch
		if lo > 0 {
			sc = new(core.Scratch)
		}
		for i := lo; i < hi; i++ {
			rows[i] = newRow(a, items[i], sc)
		}
	})
	var one [1]string // a one-item upsert collects its new key without allocating
	fresh := one[:0]
	for i, it := range items {
		if t.install(it.Key, rows[i]) {
			fresh = append(fresh, it.Key)
		}
	}
	slices.Sort(fresh)
	// i walks the old keys and j the new ones from the back, and each step
	// places the larger at i+j+1; once j is spent the rest are in place.
	old := len(t.keys)
	t.keys = slices.Grow(t.keys, len(fresh))[:old+len(fresh)]
	for i, j := old-1, len(fresh)-1; j >= 0; {
		if i >= 0 && t.keys[i] > fresh[j] {
			t.keys[i+j+1] = t.keys[i]
			i--
		} else {
			t.keys[i+j+1] = fresh[j]
			j--
		}
	}
}

// newRow assesses it into a row with a's columnar kernel, compiling its
// preferences first unless it carries columns current for a.
func newRow(a *core.Assessor, it Item, sc *core.Scratch) *Row {
	c := it.Compiled
	if !c.CurrentFor(a) {
		c = a.Compile(it.Prefs)
	}
	return &Row{Prefs: it.Prefs, Compiled: c, Totals: a.AssessTotals(it.Prefs, c, sc)}
}

// install puts r under key, moving the partial by the delta (subtract the
// old row, add the new). It reports whether the key is new; the caller
// then places it in the key list.
func (t *Table) install(key string, r *Row) bool {
	old, existed := t.byKey[key]
	if existed {
		t.agg.Sub(old.Totals)
	}
	t.byKey[key] = r
	t.agg.Add(r.Totals)
	mDeltaApplies.Inc()
	mRows.Set(float64(len(t.byKey)))
	return !existed
}

// Remove drops key's row and subtracts its contribution from the partial.
// It reports whether the key was present.
func (t *Table) Remove(key string) bool {
	r, ok := t.byKey[key]
	if !ok {
		return false
	}
	t.agg.Sub(r.Totals)
	delete(t.byKey, key)
	i, _ := slices.BinarySearch(t.keys, key)
	t.keys = slices.Delete(t.keys, i, i+1)
	mRows.Set(float64(len(t.byKey)))
	return true
}

// Rebuild recompiles and re-assesses every row against a — the policy
// swap, counted as one rebuild. The rows are assessed across the fan-out,
// then installed and the partial re-summed from scratch in sorted key
// order. The caller holds the owner's lock exclusively.
//
//lint:deterministic rebuilt aggregates must match a from-scratch assessment bit-for-bit
func (t *Table) Rebuild(a *core.Assessor) {
	mRebuilds.Inc()
	rows := make([]*Row, len(t.keys))
	core.FanOut(len(rows), func(lo, hi int) {
		var sc core.Scratch
		for i := lo; i < hi; i++ {
			rows[i] = newRow(a, Item{Prefs: t.byKey[t.keys[i]].Prefs}, &sc)
		}
	})
	t.agg = core.Partial{}
	for i, k := range t.keys {
		t.byKey[k] = rows[i]
		t.agg.Add(rows[i].Totals)
	}
}

// Assemble is the certification of rows, whose columns are current for a:
// the kernel runs over each row's columns across the fan-out into slots
// aligned with the rows, which are summed in their (sorted key) order, so
// the report is bit-identical to a serial recompute at any width.
//
//lint:deterministic certification bytes are the paper's auditable artifact (Eq. 12-16)
func Assemble(a *core.Assessor, rows []*Row) core.PopulationReport {
	reps := make([]core.ProviderReport, len(rows))
	core.FanOut(len(rows), func(lo, hi int) {
		var sc core.Scratch
		for i := lo; i < hi; i++ {
			reps[i] = a.AssessRow(rows[i].Prefs, rows[i].Compiled, &sc)
		}
	})
	return core.AssemblePopulation(reps)
}

// Ledger is a provider table behind one lock, kept for the benchmark's
// traced twin, its one caller: writers hold the lock exclusively, and
// Snapshot holds it shared.
type Ledger struct {
	mu       sync.RWMutex
	assessor *core.Assessor
	table    *Table
}

// New builds an empty ledger assessing against a. The policy version is
// not stored (rows need none; see the package comment) and is accepted for
// callers that number policies.
func New(a *core.Assessor, _ uint64) (*Ledger, error) {
	if a == nil {
		return nil, fmt.Errorf("ledger: nil assessor")
	}
	return &Ledger{assessor: a, table: NewTable()}, nil
}

// NewSharded is New.
//
// Deprecated: the ledger is one table whose population work fans out over
// key ranges; the shard count is ignored.
func NewSharded(a *core.Assessor, policyVersion uint64, _ int) (*Ledger, error) {
	return New(a, policyVersion)
}

// UpsertCompiled applies one registration or preference edit with the
// provider's compiled columns; see Table.Upsert. The prefs version is
// ignored.
func (l *Ledger) UpsertCompiled(key string, prefs *privacy.Prefs, compiled *core.CompiledPrefs, _ uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.table.Upsert(l.assessor, []Item{{Key: key, Prefs: prefs, Compiled: compiled}})
}

// UpsertBatch applies many registrations at once; see Table.Upsert.
func (l *Ledger) UpsertBatch(items []Item) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.table.Upsert(l.assessor, items)
}

// Rebuild swaps in a new assessor and re-assesses every row (see
// Table.Rebuild). The policy version is not stored.
func (l *Ledger) Rebuild(a *core.Assessor, _ uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.assessor = a
	l.table.Rebuild(a)
}

// Snapshot assembles the full population report from the rows in sorted
// provider order (see Assemble).
func (l *Ledger) Snapshot() core.PopulationReport {
	l.mu.RLock()
	a, rows := l.assessor, l.table.Rows()
	l.mu.RUnlock()
	return Assemble(a, rows)
}
