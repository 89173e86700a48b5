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
// Concurrency (DESIGN.md §11): one lock, d.mu, guards everything — the
// provider table (ledger.Table: prefs, compiled columns and report per
// provider in sorted key order, plus the running aggregate), the
// policy, the registered tables, the clock and the logs. Readers hold it
// shared and every mutation holds it exclusively. The population-scale
// paths — CertifyFull, bulk registration, policy rebuilds, what-ifs,
// sweeps, saves — fan out over contiguous ranges of their input
// (core.FanOut) and reduce serially in order. Each registered table is one
// rowTable, the only copy of its rows, with every row's provenance inline.
// Lock order is always d.mu → wal.Log.
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
	"repro/internal/privacy"
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
		"current P(W), the fraction of providers with at least one violation (Def. 2)")
	mPDefault = metrics.Default.Gauge("ppdb_pdefault",
		"current P(Default), the fraction of providers whose severity exceeds their threshold (Def. 5)")
)

// publishGaugesLocked refreshes the population gauges from the table's
// running aggregate (O(1)). The caller holds d.mu.
func (d *DB) publishGaugesLocked() {
	sum := d.table.Partial()
	mProviders.Set(float64(sum.N))
	mPW.Set(sum.PW())
	mPDefault.Set(sum.PDefault())
}

// DB is the privacy-preserving database.
//
// The whole-program lock order (enforced by ppdblint's lockorder checker
// over the static call graph) is declared below. The WAL's mutex is
// innermost — mutations append while holding d.mu, and the log acquires
// nothing:
//
//lint:lockorder ppdb.DB < wal.Log
type DB struct {
	// mu guards the state below (provider table, policy, tables, clock,
	// logs, assessor, policyVersion): readers hold it shared, every
	// mutation exclusively.
	mu sync.RWMutex

	// scales are privacy.DefaultScales(), the scales the policy DSL of
	// HTTP bodies, snapshots and WAL records names levels on.
	scales privacy.Scales

	policy   *privacy.HousePolicy
	attrSens privacy.AttributeSensitivities
	opts     core.Options

	// table is the provider table.
	table *ledger.Table

	// tables holds every registered table's rows; the query engine reads
	// them in place through enforceSource.Table.
	tables map[string]*rowTable

	hierarchies map[string]generalize.Hierarchy
	// generalizers holds each hierarchy's degradation as the query engine
	// applies it, and suppressGen the suppress-only default; built by New.
	generalizers map[string]*generalizer
	suppressGen  *generalizer
	retention    RetentionSchedule

	now   time.Time
	audit *Audit

	policyLog []PolicyChange

	// assessor is the cached assessor for (policy, attrSens, opts); every
	// row in the table is assessed with it. Only SetPolicy replaces it.
	assessor *core.Assessor
	// policyVersion counts SetPolicy transitions (reported by
	// CertifySummary and the what-if engine).
	policyVersion uint64

	// wal is the attached write-ahead log (nil until AttachWAL, and for
	// DBs that never attach one), stored under mu held exclusively. It is
	// atomic so that a mutation's commit wait, which runs after mu is
	// released, loads it without queueing on mu behind other writers. The
	// Log itself is self-locking and innermost in the lock order.
	wal atomic.Pointer[wal.Log]
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
	// Deprecated: the provider table is one table, and population work
	// fans out over GOMAXPROCS key ranges; Shards is ignored.
	Shards int
}

// New builds a PPDB.
func New(cfg Config) (*DB, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("ppdb: config needs a policy")
	}
	scales := privacy.DefaultScales()
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
		table:         ledger.NewTable(),
		tables:        make(map[string]*rowTable),
		hierarchies:   hier,
		retention:     ret,
		now:           start,
		audit:         newAudit(),
		assessor:      assessor,
		policyVersion: 1,
	}
	d.generalizers = make(map[string]*generalizer, len(hier))
	for a, h := range hier {
		d.generalizers[a] = d.newGeneralizer(h)
	}
	d.suppressGen = d.newGeneralizer(suppressOnly{})
	d.publishGaugesLocked()
	return d, nil
}

// ShardCount returns 1.
//
// Deprecated: the provider table is not sharded.
func (d *DB) ShardCount() int { return 1 }

// NumProviders returns the number of registered providers.
func (d *DB) NumProviders() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table.Len()
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
	lsn, err := d.walAppendLocked(walRecord{typ: walRecClock, v: walClockJSON{Now: next}})
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

// AttrSens returns a copy of the house Σ vector every assessment uses;
// nil means the store was built without one, so every Σ^a is 1. A policy
// swap keeps it.
func (d *DB) AttrSens() privacy.AttributeSensitivities {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.attrSens == nil {
		return nil
	}
	out := make(privacy.AttributeSensitivities, len(d.attrSens))
	for a, v := range d.attrSens {
		out[a] = v
	}
	return out
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
// one-to-many extension the paper mentions also works).
func (d *DB) RegisterTable(name string, schema *relational.Schema, providerCol string) error {
	t, err := newRowTable(name, schema, providerCol)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[t.name]; dup {
		return fmt.Errorf("ppdb: table %q already exists", t.name)
	}
	d.tables[t.name] = t
	d.mutSeq.Add(1)
	return nil
}

// tableNamesLocked lists the registered tables in sorted name order, the
// order every multi-table walk (sweeps, snapshots, right of access) takes
// so its result never depends on map iteration. The caller holds d.mu.
func (d *DB) tableNamesLocked() []string {
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterProvider records a provider's preferences. Re-registering replaces
// the previous preferences (providers may revise them). It is a batch of
// one: the registration re-assesses that one row (an O(1) delta to the
// running aggregate) under d.mu exclusive.
func (d *DB) RegisterProvider(p *privacy.Prefs) error {
	return d.RegisterProviders([]*privacy.Prefs{p})
}

// registerLocked stores validated preferences, appending rec first: the
// one write path of RegisterProvider, UpdatePreferences and
// RegisterProviders. The table's upsert compiles and assesses the rows
// with the columnar kernel, across the fan-out for a batch. The caller
// holds d.mu exclusively, so the policy cannot swap mid-write. The caller
// encodes rec before taking the lock; it is appended in the same critical
// section — WAL order equals apply order — and the returned LSN is handed
// back so the caller can commit-wait after the lock is released.
func (d *DB) registerLocked(ps []*privacy.Prefs, rec walRecord) (uint64, error) {
	lsn, err := d.walAppendLocked(rec)
	if err != nil {
		return 0, err
	}
	items := make([]ledger.Item, len(ps))
	for i, p := range ps {
		items[i] = ledger.Item{Key: strings.ToLower(p.Provider), Prefs: p}
	}
	d.table.Upsert(d.assessor, items)
	d.publishGaugesLocked()
	d.mutSeq.Add(1)
	return lsn, nil
}

// RegisterProviders records a batch of providers atomically: every
// preference set is validated before any is stored, and the batch holds
// d.mu exclusively (no interleaved reads observe a half-applied batch) —
// the cold-build path Load, ppdbserver's corpus boot and the HTTP bulk
// upload use.
func (d *DB) RegisterProviders(ps []*privacy.Prefs) error {
	for i, p := range ps {
		if p == nil {
			return fmt.Errorf("ppdb: nil preferences at index %d", i)
		}
		if err := p.Validate(d.scales); err != nil {
			return err
		}
	}
	rec, err := d.walEncode(walRecProviders, ps)
	if err != nil {
		return err
	}
	d.mu.Lock()
	lsn, err := d.registerLocked(ps, rec)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.walWait(lsn)
}

// Provider looks up registered preferences.
func (d *DB) Provider(name string) (*privacy.Prefs, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.table.Get(strings.ToLower(name))
	if !ok {
		return nil, false
	}
	return r.Prefs, true
}

// Providers returns all registered preferences, sorted by provider key so
// reports and persisted artifacts derived from it are stable across runs.
func (d *DB) Providers() []*privacy.Prefs {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.providersLocked()
}

// providersLocked returns the registered preferences in sorted key order —
// the one iteration order every assessment and persistence path shares,
// so float sums and artifacts are reproducible run to run. The caller
// holds d.mu at least shared.
func (d *DB) providersLocked() []*privacy.Prefs {
	rows := d.table.Rows()
	prefs := make([]*privacy.Prefs, len(rows))
	for i, r := range rows {
		prefs[i] = r.Prefs
	}
	return prefs
}

// ProvidersPage returns the number of providers whose canonical key starts
// with prefix, plus one page of those keys in global sorted order — the
// bounded listing the paginated HTTP API serves. offset past the end
// yields an empty page; limit <= 0 yields no rows (count-only).
func (d *DB) ProvidersPage(prefix string, offset, limit int) (int, []string) {
	prefix = strings.ToLower(prefix)
	d.mu.RLock()
	keys := d.table.Keys()
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

// RemoveProvider deletes a provider's preferences and all of their rows —
// the mechanics of a default (Def. 4): the provider leaves and contributes
// zero information. Returns the number of rows deleted: every id on the
// provider's posting list in each table becomes a tombstone, so WAL replay
// of a delete lands on exactly the same rows.
func (d *DB) RemoveProvider(name string) (int, error) {
	key := strings.ToLower(name)
	rec, err := d.walEncode(walRecDelete, walDeleteJSON{Provider: key})
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	lsn, err := d.walAppendLocked(rec)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	d.table.Remove(key)
	removed := 0
	for _, t := range d.tables {
		removed += t.removeProvider(key)
	}
	d.publishGaugesLocked()
	d.mu.Unlock()
	d.mutSeq.Add(1)
	return removed, d.walWait(lsn)
}

// Insert stores a row for a registered provider, stamping provenance with
// the simulated clock. The provider must have been registered first — the
// PPDB will not hold data it cannot audit.
func (d *DB) Insert(table, provider string, row relational.Row) (relational.RowID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[strings.ToLower(table)]
	if !ok {
		return 0, fmt.Errorf("ppdb: table %q is not registered", table)
	}
	id := t.nextID()
	if err := d.addLocked(t, id, rowSlot{row: row, provider: strings.ToLower(provider), inserted: d.now}); err != nil {
		return 0, err
	}
	// Row mutations are not WAL-logged (rows ride snapshots only) but must
	// still mark the store dirty so periodic checkpoints persist them.
	d.mutSeq.Add(1)
	return id, nil
}

// addLocked stores a row under id after the checks that keep the store
// auditable: its provider is registered and named in its provider column.
// The caller holds d.mu exclusively.
func (d *DB) addLocked(t *rowTable, id relational.RowID, s rowSlot) error {
	if _, ok := d.table.Get(s.provider); !ok {
		return fmt.Errorf("ppdb: provider %q is not registered", s.provider)
	}
	if err := ownsRow(t, s.row, s.provider); err != nil {
		return err
	}
	return t.add(id, s)
}

// ownsRow checks that the row's provider column names the provider.
func ownsRow(t *rowTable, row relational.Row, provider string) error {
	if t.provIdx < len(row) {
		if s, ok := row[t.provIdx].AsText(); !ok || !strings.EqualFold(s, provider) {
			return fmt.Errorf("ppdb: row provider column %s does not match provider %q", row[t.provIdx], provider)
		}
	}
	return nil
}

// TableLen returns the number of live rows in a registered table.
func (d *DB) TableLen(table string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[strings.ToLower(table)]
	if !ok {
		return 0
	}
	return t.live
}

// SetPolicy swaps the house policy, measuring the before/after population
// impact and appending to the policy log. The returned what-if deltas let
// callers decide whether to notify providers. Both sides are read from the
// table's running aggregate in O(1); between them every row is recompiled
// and re-assessed across the fan-out.
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
	rec, err := d.walEncode(walRecPolicy, next)
	if err != nil {
		return PolicyChange{}, 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	after, err := core.NewAssessor(next, d.attrSens, d.opts)
	if err != nil {
		return PolicyChange{}, 0, err
	}
	lsn, err := d.walAppendLocked(rec)
	if err != nil {
		return PolicyChange{}, 0, err
	}
	change := PolicyChange{
		At:   d.now,
		From: d.policy.Name,
		To:   next.Name,
	}
	before := d.table.Partial()
	d.policyVersion++
	d.table.Rebuild(after)
	afterSum := d.table.Partial()
	change.DeltaPW = afterSum.PW() - before.PW()
	change.DeltaPDefault = afterSum.PDefault() - before.PDefault()
	d.assessor = after
	d.policy = next
	d.policyLog = append(d.policyLog, change)
	d.mutSeq.Add(1)
	d.publishGaugesLocked()
	return change, lsn, nil
}
