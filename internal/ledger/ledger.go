// Package ledger is the provider table certification reads: one immutable
// row per provider — its preferences, their compiled columns (DESIGN.md
// §13), a prefs version and the memoized core.ProviderReport — plus a
// running core.Partial (N, Σ w_i, Σ default_i, Σ Violation_i) per shard.
// The paper's population quantities — P(W) = Σ w_i / N (Def. 2),
// P(Default) (Def. 5) and the house total Violations (Eq. 16) — are sums of
// independent per-provider terms, so a preference edit costs one
// re-assessment and one delta to its shard's partial, and the population
// answer is read from the partials in O(P) instead of recomputed over N.
//
// A Shard is one partition of the table: the providers whose canonical key
// hashes to its index (core.ShardIndex, DESIGN.md §11). It has no lock of
// its own; its owner serializes access. internal/ppdb embeds one Shard in
// each store shard, under that shard's lock, so the store and the table are
// the same thing. Ledger wraps P Shards behind one lock for callers that
// have no store (cmd/ppdbaudit and the benchmark's twin).
//
// Rows are current by construction. An upsert assesses the row it
// installs, and a policy swap (RebuildShards) re-assesses every row while
// the owner excludes all readers, so no row carries a policy version. A row
// is immutable once installed: readers may keep the pointers Rows returns
// after the owner's lock is released.
//
// Exactness: the integer aggregates (and hence P(W) and P(Default), ratios
// of integers) are exact and independent of the shard layout. The running
// float totals drift from a fresh sum by accumulated rounding (adds and
// subtracts in edit order, merged in shard-index order), so a summary built
// from the partials is last-ulp approximate in TotalViolations. Assemble
// re-sums the rows in global sorted key order, so a snapshot is
// bit-identical to a full recompute over the same sorted population, for
// every shard count.
package ledger

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/privacy"
)

// Instrumentation (DESIGN.md §10). Counters aggregate across every table
// in the process; the rows gauge is set by whichever table mutated last
// (one server process holds one live table). Hoisted once so the hot paths
// pay a single atomic op, not a registry lookup.
var (
	mMemoHits = metrics.Default.Counter("ledger_memo_hits_total",
		"upserts answered by a row already at the requested prefs version (no re-assessment)")
	mMemoMisses = metrics.Default.Counter("ledger_memo_misses_total",
		"upserts that had to re-assess the provider")
	mDeltaApplies = metrics.Default.Counter("ledger_delta_applies_total",
		"row installs with O(1) aggregate maintenance")
	mRebuilds = metrics.Default.Counter("ledger_rebuilds_total",
		"full-table rebuilds (policy swaps)")
	mRows = metrics.Default.Gauge("ledger_rows",
		"provider rows held by the live provider table")
)

// Row is one provider's materialized state. Immutable once installed.
type Row struct {
	Prefs *privacy.Prefs
	// Compiled is Prefs flattened against the policy the row was assessed
	// under.
	Compiled *core.CompiledPrefs
	// Version is the owner's registration counter at this row's latest
	// upsert.
	Version uint64
	Report  core.ProviderReport
}

// Item is one upsert: a provider's canonical key, preferences, their
// columns compiled against the ledger's assessor (core.Assessor.Compile)
// and prefs version.
type Item struct {
	Key      string
	Prefs    *privacy.Prefs
	Compiled *core.CompiledPrefs
	Version  uint64
}

// Shard is one partition of the provider table. It is not safe for
// concurrent use: readers need the owner's lock shared, and every mutation
// needs it exclusively.
type Shard struct {
	byKey map[string]*Row
	keys  []string // sorted; kept in lockstep with byKey
	agg   core.Partial
	// scratch is the columnar-kernel arena, used only by mutations (which
	// hold the owner's lock exclusively), so re-assessments never allocate
	// it.
	scratch core.Scratch
	// total counts rows across every shard of one table: the table's N, and
	// the ledger_rows gauge feed.
	total *atomic.Int64
}

// NewShard returns an empty shard that counts its rows into total, the
// counter every shard of one table shares.
func NewShard(total *atomic.Int64) Shard {
	return Shard{byKey: make(map[string]*Row), total: total}
}

// Get returns key's row.
func (s *Shard) Get(key string) (*Row, bool) {
	r, ok := s.byKey[key]
	return r, ok
}

// Partial returns the shard's running aggregate.
func (s *Shard) Partial() core.Partial { return s.agg }

// Rows copies the shard's sorted keys and their rows. The rows are
// immutable, so the caller may read them after releasing the owner's lock.
func (s *Shard) Rows() ([]string, []*Row) {
	keys := slices.Clone(s.keys)
	rows := make([]*Row, len(keys))
	for i, k := range keys {
		rows[i] = s.byKey[k]
	}
	return keys, rows
}

// Upsert installs one registration or preference edit and returns the
// provider's report. A row already at it.Version is returned untouched (a
// memo hit); otherwise the provider is assessed with a's columnar kernel
// and the shard's partial moves by the delta.
func (s *Shard) Upsert(a *core.Assessor, it Item) core.ProviderReport {
	if r, ok := s.byKey[it.Key]; ok && r.Version == it.Version {
		mMemoHits.Inc()
		return r.Report
	}
	mMemoMisses.Inc()
	r, fresh := s.put(a, it)
	if fresh {
		i, _ := slices.BinarySearch(s.keys, it.Key)
		s.keys = slices.Insert(s.keys, i, it.Key)
	}
	return r.Report
}

// UpsertBatch installs many items at once, the cold-load path. Every item
// is assessed (a batch carries fresh versions). New keys are sorted once
// and merged into the key list, not shifted in one at a time; a key listed
// twice keeps its last item.
func (s *Shard) UpsertBatch(a *core.Assessor, items []Item) {
	mMemoMisses.Add(uint64(len(items)))
	var fresh []string
	for _, it := range items {
		if _, isNew := s.put(a, it); isNew {
			fresh = append(fresh, it.Key)
		}
	}
	if len(fresh) == 0 {
		return
	}
	sort.Strings(fresh)
	runs := [][]string{s.keys, fresh}
	merged := make([]string, 0, len(s.keys)+len(fresh))
	core.MergeSorted(runs, func(r, i int) { merged = append(merged, runs[r][i]) })
	s.keys = merged
}

// put assesses it and installs the row, moving the partial by the delta
// (subtract the old row, add the new). It reports whether the key is new;
// the caller then places it in the key list.
func (s *Shard) put(a *core.Assessor, it Item) (*Row, bool) {
	if it.Compiled != nil {
		it.Compiled.PrefsVersion = it.Version
	}
	r := &Row{Prefs: it.Prefs, Compiled: it.Compiled, Version: it.Version,
		Report: a.AssessRow(it.Prefs, it.Compiled, &s.scratch)}
	old, existed := s.byKey[it.Key]
	if existed {
		s.agg.Sub(&old.Report)
	} else {
		s.total.Add(1)
	}
	s.byKey[it.Key] = r
	s.agg.Add(&r.Report)
	mDeltaApplies.Inc()
	mRows.Set(float64(s.total.Load()))
	return r, !existed
}

// Remove drops key's row and subtracts its contribution from the partial.
// It reports whether the key was present.
func (s *Shard) Remove(key string) bool {
	r, ok := s.byKey[key]
	if !ok {
		return false
	}
	s.agg.Sub(&r.Report)
	delete(s.byKey, key)
	i, _ := slices.BinarySearch(s.keys, key)
	s.keys = slices.Delete(s.keys, i, i+1)
	mRows.Set(float64(s.total.Add(-1)))
	return true
}

// rebuild recompiles and re-assesses every row against a, installing fresh
// rows and re-summing the partial from scratch in sorted key order.
func (s *Shard) rebuild(a *core.Assessor) {
	s.agg = core.Partial{}
	for _, k := range s.keys {
		old := s.byKey[k]
		c := a.Compile(old.Prefs)
		c.PrefsVersion = old.Version
		r := &Row{Prefs: old.Prefs, Compiled: c, Version: old.Version,
			Report: a.AssessRow(old.Prefs, c, &s.scratch)}
		s.byKey[k] = r
		s.agg.Add(&r.Report)
	}
}

// RebuildShards re-assesses every row of a table against a new assessor —
// the policy swap, one goroutine per shard, counted as one rebuild. The
// caller holds every shard exclusively.
//
//lint:deterministic rebuilt aggregates must match a from-scratch assessment bit-for-bit
func RebuildShards(shards []*Shard, a *core.Assessor) {
	mRebuilds.Inc()
	core.FanOut(len(shards), len(shards), func(i int) { shards[i].rebuild(a) })
}

// Assemble merges per-shard row runs (keys[i] sorted, rows[i][j] the row
// of keys[i][j]) into global sorted key order and assembles the population
// report — O(N·P) merging, zero re-assessment. The float total is summed
// in that global order, so the result is bit-identical to a full recompute
// over the same sorted population, for every shard count.
//
//lint:deterministic snapshot reports feed certifications and must not depend on shard count
func Assemble(keys [][]string, rows [][]*Row) core.PopulationReport {
	n := 0
	for _, run := range keys {
		n += len(run)
	}
	reps := make([]core.ProviderReport, 0, n)
	core.MergeSorted(keys, func(r, i int) { reps = append(reps, rows[r][i].Report) })
	return core.AssemblePopulation(reps)
}

// Ledger is a provider table of P shards behind one lock, for callers
// without a store of their own: writers hold the lock exclusively, and
// Snapshot holds it shared.
type Ledger struct {
	mu       sync.RWMutex
	assessor *core.Assessor
	shards   []*Shard
	rows     atomic.Int64
}

// New builds an empty ledger assessing against a, with one shard per
// schedulable CPU. The policy version is not stored (rows need none; see
// the package comment) and is accepted for callers that number policies.
func New(a *core.Assessor, policyVersion uint64) (*Ledger, error) {
	return NewSharded(a, policyVersion, 0)
}

// NewSharded builds an empty ledger with an explicit shard count; 0 means
// core.DefaultShards().
func NewSharded(a *core.Assessor, _ uint64, shards int) (*Ledger, error) {
	if a == nil {
		return nil, fmt.Errorf("ledger: nil assessor")
	}
	if shards < 0 {
		return nil, fmt.Errorf("ledger: shard count %d must be >= 0", shards)
	}
	if shards == 0 {
		shards = core.DefaultShards()
	}
	l := &Ledger{assessor: a, shards: make([]*Shard, shards)}
	for i := range l.shards {
		s := NewShard(&l.rows)
		l.shards[i] = &s
	}
	return l, nil
}

// UpsertCompiled applies one registration or preference edit with the
// provider's compiled columns; see Shard.Upsert.
func (l *Ledger) UpsertCompiled(key string, prefs *privacy.Prefs, compiled *core.CompiledPrefs, prefsVersion uint64) core.ProviderReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.shards[core.ShardIndex(key, len(l.shards))]
	return s.Upsert(l.assessor, Item{Key: key, Prefs: prefs, Compiled: compiled, Version: prefsVersion})
}

// UpsertBatch applies many registrations at once, one goroutine per shard
// with items.
func (l *Ledger) UpsertBatch(items []Item) {
	l.mu.Lock()
	defer l.mu.Unlock()
	buckets := make([][]Item, len(l.shards))
	for _, it := range items {
		i := core.ShardIndex(it.Key, len(l.shards))
		buckets[i] = append(buckets[i], it)
	}
	core.FanOut(len(l.shards), len(l.shards), func(i int) {
		if len(buckets[i]) > 0 {
			l.shards[i].UpsertBatch(l.assessor, buckets[i])
		}
	})
}

// Rebuild swaps in a new assessor and re-assesses every row (see
// RebuildShards). The policy version is not stored.
func (l *Ledger) Rebuild(a *core.Assessor, _ uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.assessor = a
	RebuildShards(l.shards, a)
}

// Snapshot assembles the full population report from the rows in global
// sorted provider order (see Assemble).
func (l *Ledger) Snapshot() core.PopulationReport {
	l.mu.RLock()
	defer l.mu.RUnlock()
	keys := make([][]string, len(l.shards))
	rows := make([][]*Row, len(l.shards))
	for i, s := range l.shards {
		keys[i], rows[i] = s.Rows()
	}
	return Assemble(keys, rows)
}
