// Package ppdb is the privacy-preserving database prototype the paper calls
// for in Sec. 10: a relational store whose reads are bound to a purpose and
// a requester visibility class, whose cells expire per the policy's
// retention levels, and whose conformance to provider preferences is
// continuously auditable (α-PPDB certification, Def. 3).
//
// The paper's model is audit-oriented — it quantifies the mismatch between
// policy and preferences. The PPDB adds the enforcement half: QueryEnforced
// is the only way data leaves the store, and it checks every answered cell
// against both the policy tuple for the request purpose and the contributing
// provider's own preference (Def. 1, per datum), suppressing, generalizing
// or expiring whatever either would not disclose. The stated policy, the
// stated preferences and the practiced disclosure therefore coincide (the
// transparency requirement of Sec. 1).
//
// Concurrency (DESIGN.md §11): provider state is sharded by FNV-1a hash of
// the canonical provider key (core.ShardIndex) into Config.Shards shards,
// each with its own lock and a matching ledger partition. Point operations
// on different providers therefore never contend, and the population-scale
// paths — CertifyFull, bulk registration, policy rebuilds, sweeps, saves —
// fan out one goroutine per shard. The top-level d.mu still guards the
// cross-shard state (policy, tables, clock, logs): readers of any shard
// hold it shared, structural changes hold it exclusively. Lock order is
// always d.mu → dbShard.mu → ledger locks.
package ppdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/generalize"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/policydsl"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/wal"
)

// Instrumentation (DESIGN.md §10): the paper's headline population
// quantities as live gauges, refreshed on every mutation that can move
// them. One server process holds one live DB; with several DBs in one
// process (tests), the last mutator wins.
var (
	mProviders = metrics.Default.Gauge("ppdb_providers",
		"registered data providers (the population size N)")
	mPW = metrics.Default.Gauge("ppdb_pw",
		"current P(W), the fraction of providers with at least one violation (Def. 2); ledger-backed DBs only")
	mPDefault = metrics.Default.Gauge("ppdb_pdefault",
		"current P(Default), the fraction of providers whose severity exceeds their threshold (Def. 5); ledger-backed DBs only")
)

// publishGauges refreshes the population gauges from the atomic provider
// count and the ledger aggregates (O(P)). Without a ledger only the
// provider count is published — recomputing P(W) per mutation would be the
// O(N) cost DisableIncremental opted out of. Needs no DB lock: the count
// is atomic and the ledger self-locking.
func (d *DB) publishGauges() {
	mProviders.Set(float64(d.nProviders.Load()))
	if d.ledger == nil {
		return
	}
	sum := d.ledger.Summary()
	mPW.Set(sum.PW)
	mPDefault.Set(sum.PDefault)
}

// rowMeta tracks per-row provenance: who provided it and when.
type rowMeta struct {
	provider string
	inserted time.Time
	// expired marks attribute cells already nulled by retention sweeps.
	expired map[string]bool
}

// tableMeta is the PPDB bookkeeping for one registered table.
type tableMeta struct {
	table       *relational.Table
	providerCol string
	rows        map[relational.RowID]*rowMeta
}

// providerState is one provider's stored state: the registered preferences
// and their columnar compilation against the current policy (nil when the
// policy is not maskable — the kernel's fallback case). A providerState is
// immutable once installed; every registration and every policy recompile
// installs a fresh value, so certification workers may keep reading a
// snapshot of states after the shard lock is released.
type providerState struct {
	prefs    *privacy.Prefs
	compiled *core.CompiledPrefs
	// version is the shard prefsVersion stamped at this provider's latest
	// registration — the same counter value the ledger row is keyed on, so
	// a policy recompile can preserve it on the fresh columns.
	version uint64
}

// dbShard owns the providers whose canonical key hashes to its index:
// their preference pointers, their compiled tuple columns, the shard's
// sorted key list and its monotonic registration counter. Provider keys
// always land on the same shard index as their ledger partition (both use
// core.ShardIndex with the same count), so a provider's store shard and
// ledger shard coincide.
type dbShard struct {
	mu        sync.RWMutex
	providers map[string]*providerState
	// keys mirrors the providers map in sorted order, so population-scale
	// reads merge per-shard sorted runs instead of re-sorting the world.
	keys []string
	// prefsVersion counts registrations on this shard; stamped onto each
	// provider's ledger row and compiled columns. Per-shard counters stay
	// monotone per provider because a provider never changes shards.
	prefsVersion uint64
}

// DB is the privacy-preserving database.
//
// The whole-program lock order (enforced by ppdblint's lockorder checker
// over the static call graph) is declared below. The WAL's mutex is
// innermost — mutations append while holding their serializing lock
// (shard lock or d.mu), and the log acquires nothing:
//
//lint:lockorder ppdb.DB < ppdb.dbShard < ledger.Ledger < ledger.shard
//lint:lockorder ppdb.dbShard < wal.Log
//lint:lockorder ledger.shard < wal.Log
type DB struct {
	// mu guards the cross-shard state below (policy, tables, clock,
	// logs, assessor, ledger pointer, policyVersion). Shard-local provider
	// operations hold it shared plus the owning shard's lock; structural
	// operations (policy swap, table mutation, batch registration) hold it
	// exclusively. Lock order: mu before any dbShard.mu.
	mu sync.RWMutex

	scales privacy.Scales

	policy   *privacy.HousePolicy
	attrSens privacy.AttributeSensitivities
	opts     core.Options

	// shards is the provider store, fixed at construction.
	shards []*dbShard
	// nProviders counts registered providers across shards (gauge feed and
	// O(1) Len without sweeping the shards).
	nProviders atomic.Int64

	tables map[string]*tableMeta
	// catalog binds every registered table for the query planner; it is
	// extended by RegisterTable and read by QueryEnforced, both under mu.
	catalog *query.Catalog

	hierarchies map[string]generalize.Hierarchy
	retention   RetentionSchedule

	now   time.Time
	audit *Audit

	policyLog []PolicyChange

	// assessor is the cached assessor for (policy, attrSens, opts); it is
	// rebuilt only by SetPolicy, so the full-recompute fallback paths never
	// re-validate and reconstruct one per call.
	assessor *core.Assessor
	// ledger is the incremental violation view (nil when
	// Config.DisableIncremental is set); it is constructed once and
	// self-locking, and every provider/policy mutation keeps it current.
	// Its shard count equals len(shards).
	ledger *ledger.Ledger
	// policyVersion counts SetPolicy transitions; together with the
	// shards' prefsVersion counters it keys the ledger's memoized rows.
	policyVersion uint64

	// wal is the attached write-ahead log (nil until AttachWAL, and for
	// DBs that never attach one). Guarded by mu; the Log itself is
	// self-locking and innermost in the lock order.
	wal *wal.Log
	// loadedLSN is the WAL checkpoint LSN recorded in the snapshot this DB
	// was loaded from (0 for a fresh DB): replay starts past it.
	loadedLSN uint64
	// mutSeq counts every mutation (WAL-logged or not); savedSeq is the
	// mutSeq value captured by the last completed save. Checkpoint compares
	// them to skip rewriting identical snapshots on idle servers.
	mutSeq, savedSeq atomic.Uint64
	// ckptMu serializes checkpoints and guards lastCkptLSN, the LSN the
	// newest checkpoint recorded (WAL truncation keeps everything back to
	// the checkpoint before it).
	ckptMu      sync.Mutex
	lastCkptLSN uint64
}

// PolicyChange records one policy version transition for the audit trail
// (the frequently-changing-policies concern of Secs. 1 and 10).
type PolicyChange struct {
	At       time.Time
	From, To string
	// DeltaPW and DeltaPDefault are the population-level consequences
	// measured at switch time.
	DeltaPW, DeltaPDefault float64
}

// Config configures a new PPDB.
type Config struct {
	// Policy is the house policy HP. Required.
	Policy *privacy.HousePolicy
	// AttrSens is the house Σ vector; nil means all 1.
	AttrSens privacy.AttributeSensitivities
	// Scales for level validation and rendering; zero fields default.
	Scales privacy.Scales
	// Options for the violation assessor.
	Options core.Options
	// Hierarchies supply granularity degradation per attribute; attributes
	// without one are suppressed entirely when the policy grants less than
	// full granularity.
	Hierarchies map[string]generalize.Hierarchy
	// Retention maps retention levels to durations; nil means
	// DefaultRetentionSchedule.
	Retention RetentionSchedule
	// Start is the initial simulated time; zero means a fixed epoch.
	Start time.Time
	// Shards is the number of provider-store/ledger shards (and the width
	// of every population fan-out); 0 means one per schedulable CPU
	// (core.DefaultShards). 1 reproduces the serial pre-sharding behavior
	// exactly. Certification results are byte-identical for every value.
	Shards int
	// DisableIncremental turns off the violation ledger: certification,
	// self-audits and policy what-ifs fall back to full recomputation over
	// all providers. Assessment results are identical either way; this
	// exists for A/B verification and write-heavy workloads that never
	// certify.
	DisableIncremental bool
}

// New builds a PPDB.
func New(cfg Config) (*DB, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("ppdb: config needs a policy")
	}
	scales := cfg.Scales
	if scales.Visibility == nil {
		scales.Visibility = privacy.DefaultVisibility
	}
	if scales.Granularity == nil {
		scales.Granularity = privacy.DefaultGranularity
	}
	if scales.Retention == nil {
		scales.Retention = privacy.DefaultRetention
	}
	if err := cfg.Policy.Validate(scales); err != nil {
		return nil, err
	}
	if err := cfg.AttrSens.Validate(); err != nil {
		return nil, err
	}
	ret := cfg.Retention
	if ret == nil {
		ret = DefaultRetentionSchedule(scales.Retention)
	}
	if err := ret.Validate(scales.Retention); err != nil {
		return nil, err
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("ppdb: shard count %d must be >= 0", cfg.Shards)
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = core.DefaultShards()
	}
	hier := make(map[string]generalize.Hierarchy, len(cfg.Hierarchies))
	for a, h := range cfg.Hierarchies {
		hier[strings.ToLower(a)] = h
	}
	assessor, err := core.NewAssessor(cfg.Policy, cfg.AttrSens, cfg.Options)
	if err != nil {
		return nil, err
	}
	d := &DB{
		scales:        scales,
		policy:        cfg.Policy,
		attrSens:      cfg.AttrSens,
		opts:          cfg.Options,
		shards:        make([]*dbShard, nShards),
		tables:        make(map[string]*tableMeta),
		catalog:       query.NewCatalog(),
		hierarchies:   hier,
		retention:     ret,
		now:           start,
		audit:         newAudit(),
		assessor:      assessor,
		policyVersion: 1,
	}
	for i := range d.shards {
		d.shards[i] = &dbShard{providers: make(map[string]*providerState)}
	}
	if !cfg.DisableIncremental {
		led, err := ledger.NewSharded(assessor, d.policyVersion, nShards)
		if err != nil {
			return nil, err
		}
		d.ledger = led
	}
	d.publishGauges()
	return d, nil
}

// ShardCount returns the number of provider-store shards (also the ledger
// partition count and the width of population fan-outs).
func (d *DB) ShardCount() int { return len(d.shards) }

// NumProviders returns the number of registered providers, O(1) from the
// cross-shard counter.
func (d *DB) NumProviders() int { return int(d.nProviders.Load()) }

// shardOf routes a canonical (lowercased) provider key to its shard.
func (d *DB) shardOf(key string) *dbShard {
	return d.shards[core.ShardIndex(key, len(d.shards))]
}

// Now returns the simulated clock.
func (d *DB) Now() time.Time {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.now
}

// Advance moves the simulated clock forward and returns the new time.
// Negative durations are rejected. The WAL record carries the absolute
// post-advance clock — sweeps derive expirations from the clock, so replay
// must land on identical instants whatever clock the snapshot started at.
func (d *DB) Advance(by time.Duration) (time.Time, error) {
	if by < 0 {
		return time.Time{}, fmt.Errorf("ppdb: cannot advance clock by negative duration %s", by)
	}
	d.mu.Lock()
	next := d.now.Add(by)
	lsn, err := d.walAppendLocked(walRecClock, walClockJSON{Now: next})
	if err != nil {
		d.mu.Unlock()
		return time.Time{}, err
	}
	d.now = next
	d.mu.Unlock()
	d.mutSeq.Add(1)
	return next, d.walWait(lsn)
}

// Policy returns the current house policy.
func (d *DB) Policy() *privacy.HousePolicy {
	d.mu.RLock()
	defer d.mu.RUnlock()
	//lint:ignore lockcheck HousePolicy is immutable by convention; SetPolicy swaps the pointer, never mutates in place
	return d.policy
}

// PolicyLog returns the recorded policy transitions.
func (d *DB) PolicyLog() []PolicyChange {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PolicyChange, len(d.policyLog))
	copy(out, d.policyLog)
	return out
}

// Audit exposes the access/violation log.
func (d *DB) Audit() *Audit { return d.audit }

// RegisterTable creates a table whose rows each belong to one data provider,
// identified by providerCol (paper assumption 5: one tuple per provider per
// table; the PPDB enforces provider existence, not uniqueness, so the
// one-to-many extension the paper mentions also works). The table is bound
// into the query catalog here, once, so reads never rebuild it.
func (d *DB) RegisterTable(name string, schema *relational.Schema, providerCol string) error {
	tab, err := relational.NewTable(name, schema)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[tab.Name()]; dup {
		return fmt.Errorf("ppdb: table %q already exists", tab.Name())
	}
	if err := d.catalog.Bind(tab, providerCol); err != nil {
		return err
	}
	d.tables[tab.Name()] = &tableMeta{
		table:       tab,
		providerCol: privacy.CanonAttr(providerCol),
		rows:        make(map[relational.RowID]*rowMeta),
	}
	d.mutSeq.Add(1)
	return nil
}

// RegisterProvider records a provider's preferences. Re-registering replaces
// the previous preferences (providers may revise them). Each registration
// bumps the owning shard's prefs version and applies an O(1) delta to the
// violation ledger, holding only d.mu shared plus that shard's lock — so
// registrations on different shards proceed in parallel.
func (d *DB) RegisterProvider(p *privacy.Prefs) error {
	if p == nil {
		return fmt.Errorf("ppdb: nil preferences")
	}
	if err := p.Validate(d.scales); err != nil {
		return err
	}
	d.mu.RLock()
	lsn, err := d.registerShared(p)
	d.mu.RUnlock()
	if err != nil {
		return err
	}
	d.publishGauges()
	return d.walWait(lsn)
}

// registerShared stores validated preferences under the owning shard's
// lock, stamping a fresh prefs version and upserting the ledger row. The
// preferences are compiled into columnar form once, outside the shard
// lock, and the same columns are shared with the ledger so its delta
// re-assessment runs the kernel too. The caller holds d.mu at least shared
// (so the policy cannot swap mid-write). The WAL record is appended inside
// the shard critical section — WAL order equals apply order — and the
// returned LSN is handed back so the caller can commit-wait after the
// locks release.
func (d *DB) registerShared(p *privacy.Prefs) (uint64, error) {
	key := strings.ToLower(p.Provider)
	c := d.assessor.Compile(p)
	rec := policydsl.ProviderToJSON(p)
	s := d.shardOf(key)
	s.mu.Lock()
	lsn, err := d.walAppendLocked(walRecUpsert, rec)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	_, existed := s.providers[key]
	s.prefsVersion++
	if c != nil {
		c.PrefsVersion = s.prefsVersion
	}
	s.providers[key] = &providerState{prefs: p, compiled: c, version: s.prefsVersion}
	if !existed {
		i := sort.SearchStrings(s.keys, key)
		s.keys = append(s.keys, "")
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
	}
	if d.ledger != nil {
		d.ledger.UpsertCompiled(key, p, c, s.prefsVersion)
	}
	s.mu.Unlock()
	if !existed {
		d.nProviders.Add(1)
	}
	d.mutSeq.Add(1)
	return lsn, nil
}

// RegisterProviders records a batch of providers atomically: every
// preference set is validated before any is stored, the batch holds d.mu
// exclusively (no interleaved reads observe a half-applied batch), and the
// store + ledger build fan out one goroutine per shard — the cold-build
// path Load and the HTTP bulk upload use.
func (d *DB) RegisterProviders(ps []*privacy.Prefs) error {
	for i, p := range ps {
		if p == nil {
			return fmt.Errorf("ppdb: nil preferences at index %d", i)
		}
		if err := p.Validate(d.scales); err != nil {
			return err
		}
	}
	recs := make([]policydsl.ProviderJSON, len(ps))
	for i, p := range ps {
		recs[i] = policydsl.ProviderToJSON(p)
	}
	d.mu.Lock()
	lsn, err := d.walAppendLocked(walRecBatch, recs)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	buckets := make([][]*privacy.Prefs, len(d.shards))
	for _, p := range ps {
		i := core.ShardIndex(strings.ToLower(p.Provider), len(d.shards))
		buckets[i] = append(buckets[i], p)
	}
	shardItems := make([][]ledger.Item, len(d.shards))
	core.FanOut(len(d.shards), len(d.shards), func(i int) {
		if len(buckets[i]) == 0 {
			return
		}
		s := d.shards[i]
		s.mu.Lock()
		items := make([]ledger.Item, 0, len(buckets[i]))
		var fresh []string
		for _, p := range buckets[i] {
			key := strings.ToLower(p.Provider)
			if _, existed := s.providers[key]; !existed {
				d.nProviders.Add(1)
				fresh = append(fresh, key)
			}
			c := d.assessor.Compile(p)
			s.prefsVersion++
			if c != nil {
				c.PrefsVersion = s.prefsVersion
			}
			s.providers[key] = &providerState{prefs: p, compiled: c, version: s.prefsVersion}
			items = append(items, ledger.Item{Key: key, Prefs: p, Compiled: c, Version: s.prefsVersion})
		}
		if len(fresh) > 0 {
			sort.Strings(fresh)
			s.keys = mergeSortedKeys(s.keys, fresh)
		}
		s.mu.Unlock()
		shardItems[i] = items
	})
	if d.ledger != nil {
		all := make([]ledger.Item, 0, len(ps))
		for _, items := range shardItems {
			all = append(all, items...)
		}
		d.ledger.UpsertBatch(all)
	}
	d.mu.Unlock()
	d.mutSeq.Add(1)
	d.publishGauges()
	return d.walWait(lsn)
}

// Provider looks up registered preferences.
func (d *DB) Provider(name string) (*privacy.Prefs, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lookupShared(strings.ToLower(name))
}

// lookupShared reads one provider under its shard lock; the caller holds
// d.mu at least shared.
func (d *DB) lookupShared(key string) (*privacy.Prefs, bool) {
	st, ok := d.stateShared(key)
	if !ok {
		return nil, false
	}
	return st.prefs, true
}

// stateShared reads one provider's full stored state (preferences plus
// compiled columns) under its shard lock; the caller holds d.mu at least
// shared. The returned state is immutable.
func (d *DB) stateShared(key string) (*providerState, bool) {
	s := d.shardOf(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.providers[key]
	return st, ok
}

// mergeSortedKeys merges a sorted key list with a sorted batch of new keys
// (disjoint from the existing list) into one sorted list.
func mergeSortedKeys(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Providers returns all registered preferences, sorted by provider key so
// reports and persisted artifacts derived from it are stable across runs
// and across shard counts.
func (d *DB) Providers() []*privacy.Prefs {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.populationShared()
}

// ProvidersPage returns the number of providers whose canonical key starts
// with prefix, plus one page of those keys in global sorted order — the
// bounded listing the paginated HTTP API serves. offset past the end
// yields an empty page; limit <= 0 yields no rows (count-only).
func (d *DB) ProvidersPage(prefix string, offset, limit int) (int, []string) {
	prefix = strings.ToLower(prefix)
	d.mu.RLock()
	keys, _ := d.sortedProvidersShared()
	d.mu.RUnlock()
	if prefix != "" {
		filtered := keys[:0]
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				filtered = append(filtered, k)
			}
		}
		keys = filtered
	}
	total := len(keys)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	if limit < 0 {
		limit = 0
	}
	end := offset + limit
	if end > total {
		end = total
	}
	return total, append([]string(nil), keys[offset:end]...)
}

// sortedProvidersShared snapshots every shard under its lock and returns
// the providers in global sorted key order — the one iteration order every
// assessment and persistence path shares, so float sums and artifacts are
// reproducible run to run and identical for every shard count. Each shard
// already keeps its keys sorted, so this is a P-way merge of sorted runs
// (no global re-sort and no map iteration). The caller holds d.mu at least
// shared.
func (d *DB) sortedProvidersShared() ([]string, []*privacy.Prefs) {
	snaps := d.snapshotShardsShared()
	total := 0
	for i := range snaps {
		total += len(snaps[i].keys)
	}
	keys := make([]string, 0, total)
	prefs := make([]*privacy.Prefs, 0, total)
	cursors := make([]int, len(snaps))
	for len(keys) < total {
		best := -1
		for i := range snaps {
			if cursors[i] >= len(snaps[i].keys) {
				continue
			}
			if best < 0 || snaps[i].keys[cursors[i]] < snaps[best].keys[cursors[best]] {
				best = i
			}
		}
		keys = append(keys, snaps[best].keys[cursors[best]])
		prefs = append(prefs, snaps[best].states[cursors[best]].prefs)
		cursors[best]++
	}
	return keys, prefs
}

// shardSnap is one shard's consistent (keys, states) snapshot: keys in
// sorted order, states[i] the immutable stored state of keys[i].
type shardSnap struct {
	keys   []string
	states []*providerState
}

// snapshotShardsShared copies every shard's sorted key list and state
// pointers under that shard's read lock — the consistent per-shard view the
// population-scale paths (certification, persistence, listings) fan out
// over after releasing the locks. The caller holds d.mu at least shared.
func (d *DB) snapshotShardsShared() []shardSnap {
	snaps := make([]shardSnap, len(d.shards))
	for i, s := range d.shards {
		s.mu.RLock()
		sn := shardSnap{
			keys:   append([]string(nil), s.keys...),
			states: make([]*providerState, len(s.keys)),
		}
		for j, k := range s.keys {
			sn.states[j] = s.providers[k]
		}
		s.mu.RUnlock()
		snaps[i] = sn
	}
	return snaps
}

// populationShared is sortedProvidersShared without the keys.
func (d *DB) populationShared() []*privacy.Prefs {
	_, prefs := d.sortedProvidersShared()
	return prefs
}

// RemoveProvider deletes a provider's preferences and all of their rows —
// the mechanics of a default (Def. 4): the provider leaves and contributes
// zero information. Returns the number of rows deleted. Tables are visited
// in sorted name order and rows in ascending ID order, so the mutation
// sequence is reproducible — WAL replay of a delete must retrace it
// exactly.
func (d *DB) RemoveProvider(name string) (int, error) {
	key := strings.ToLower(name)
	d.mu.Lock()
	lsn, err := d.walAppendLocked(walRecDelete, walDeleteJSON{Provider: key})
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	s := d.shardOf(key)
	s.mu.Lock()
	_, existed := s.providers[key]
	delete(s.providers, key)
	if existed {
		i := sort.SearchStrings(s.keys, key)
		s.keys = append(s.keys[:i], s.keys[i+1:]...)
	}
	s.mu.Unlock()
	if existed {
		d.nProviders.Add(-1)
	}
	if d.ledger != nil {
		d.ledger.Remove(key)
	}
	removed := 0
	tableNames := make([]string, 0, len(d.tables))
	for n := range d.tables {
		tableNames = append(tableNames, n)
	}
	sort.Strings(tableNames)
	for _, tn := range tableNames {
		tm := d.tables[tn]
		ids := make([]relational.RowID, 0)
		for id, meta := range tm.rows {
			if meta.provider == key {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			tm.table.Delete(id)
			delete(tm.rows, id)
			removed++
		}
	}
	d.mu.Unlock()
	d.mutSeq.Add(1)
	d.publishGauges()
	return removed, d.walWait(lsn)
}

// Insert stores a row for a registered provider, stamping provenance with
// the simulated clock. The provider must have been registered first — the
// PPDB will not hold data it cannot audit.
func (d *DB) Insert(table, provider string, row relational.Row) (relational.RowID, error) {
	key := strings.ToLower(provider)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.lookupShared(key); !ok {
		return 0, fmt.Errorf("ppdb: provider %q is not registered", provider)
	}
	tm, ok := d.tables[strings.ToLower(table)]
	if !ok {
		return 0, fmt.Errorf("ppdb: table %q is not registered", table)
	}
	pi, _ := tm.table.Schema().ColumnIndex(tm.providerCol)
	if pi < len(row) {
		if s, ok := row[pi].AsText(); !ok || !strings.EqualFold(s, provider) {
			return 0, fmt.Errorf("ppdb: row provider column %s does not match provider %q", row[pi], provider)
		}
	}
	id, err := tm.table.Insert(row)
	if err != nil {
		return 0, err
	}
	tm.rows[id] = &rowMeta{provider: key, inserted: d.now, expired: map[string]bool{}}
	// Row mutations are not WAL-logged (rows ride snapshots only) but must
	// still mark the store dirty so periodic checkpoints persist them.
	d.mutSeq.Add(1)
	return id, nil
}

// TableLen returns the number of live rows in a registered table.
func (d *DB) TableLen(table string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	tm, ok := d.tables[strings.ToLower(table)]
	if !ok {
		return 0
	}
	return tm.table.Len()
}

// SetPolicy swaps the house policy, measuring the before/after population
// impact and appending to the policy log. The returned what-if deltas let
// callers decide whether to notify providers. With the ledger enabled the
// "before" numbers are read from the running aggregates in O(P) and the
// swap triggers one cold rebuild, one goroutine per shard; the fallback
// path recomputes both sides over the sorted population in parallel.
func (d *DB) SetPolicy(next *privacy.HousePolicy) (PolicyChange, error) {
	change, lsn, err := d.setPolicyExclusive(next)
	if err != nil {
		return PolicyChange{}, err
	}
	return change, d.walWait(lsn)
}

// setPolicyExclusive validates, WAL-logs, and applies a policy swap under
// d.mu, returning the record's LSN for the caller's commit-wait.
func (d *DB) setPolicyExclusive(next *privacy.HousePolicy) (PolicyChange, uint64, error) {
	if next == nil {
		return PolicyChange{}, 0, fmt.Errorf("ppdb: nil policy")
	}
	if err := next.Validate(d.scales); err != nil {
		return PolicyChange{}, 0, err
	}
	rec := policydsl.PolicyToJSON(next, nil)
	d.mu.Lock()
	defer d.mu.Unlock()
	after, err := core.NewAssessor(next, d.attrSens, d.opts)
	if err != nil {
		return PolicyChange{}, 0, err
	}
	lsn, err := d.walAppendLocked(walRecPolicy, rec)
	if err != nil {
		return PolicyChange{}, 0, err
	}
	change := PolicyChange{
		At:   d.now,
		From: d.policy.Name,
		To:   next.Name,
	}
	if d.ledger != nil {
		before := d.ledger.Summary()
		d.policyVersion++
		compiled := d.recompileShardsLocked(after)
		d.ledger.RebuildCompiled(after, d.policyVersion, compiled)
		afterSum := d.ledger.Summary()
		change.DeltaPW = afterSum.PW - before.PW
		change.DeltaPDefault = afterSum.PDefault - before.PDefault
	} else {
		d.policyVersion++
		pop := d.populationShared()
		bRep := d.assessor.AssessPopulationParallel(pop, len(d.shards))
		aRep := after.AssessPopulationParallel(pop, len(d.shards))
		d.recompileShardsLocked(after)
		change.DeltaPW = aRep.PW - bRep.PW
		change.DeltaPDefault = aRep.PDefault - bRep.PDefault
	}
	d.assessor = after
	d.policy = next
	d.policyLog = append(d.policyLog, change)
	d.mutSeq.Add(1)
	d.publishGauges()
	return change, lsn, nil
}

// recompileShardsLocked recompiles every provider's tuple columns against
// a new assessor, one goroutine per shard, installing fresh immutable
// providerStates and returning the compiled rows keyed by canonical
// provider key (for handing to the ledger rebuild, so the population is
// compiled exactly once per policy swap). The caller holds d.mu
// exclusively.
func (d *DB) recompileShardsLocked(after *core.Assessor) map[string]*core.CompiledPrefs {
	shardMaps := make([]map[string]*core.CompiledPrefs, len(d.shards))
	core.FanOut(len(d.shards), len(d.shards), func(i int) {
		s := d.shards[i]
		s.mu.Lock()
		m := make(map[string]*core.CompiledPrefs, len(s.providers))
		for _, k := range s.keys {
			st := s.providers[k]
			c := after.Compile(st.prefs)
			if c != nil {
				c.PrefsVersion = st.version
			}
			s.providers[k] = &providerState{prefs: st.prefs, compiled: c, version: st.version}
			m[k] = c
		}
		s.mu.Unlock()
		shardMaps[i] = m
	})
	total := 0
	for _, m := range shardMaps {
		total += len(m)
	}
	compiled := make(map[string]*core.CompiledPrefs, total)
	for _, m := range shardMaps {
		for k, c := range m {
			compiled[k] = c
		}
	}
	return compiled
}
