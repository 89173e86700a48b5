package ppdb

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/policydsl"
	"repro/internal/relational"
)

// Persistence instrumentation (DESIGN.md §10): wall-clock histograms for
// the crash-safe save and the manifest-verified load, an error counter
// for failed saves, and a counter for loads that had to fall back to the
// previous generation — the signal that the newest snapshot was torn.
var (
	mSaveSeconds = metrics.Default.Histogram("ppdb_snapshot_save_seconds",
		"duration of successful crash-safe snapshot saves", metrics.DefBuckets)
	mLoadSeconds = metrics.Default.Histogram("ppdb_snapshot_load_seconds",
		"duration of successful snapshot loads (including fallbacks)", metrics.DefBuckets)
	mSaveErrors = metrics.Default.Counter("ppdb_snapshot_save_errors_total",
		"snapshot saves that failed (the live generation is untouched)")
	mLoadFallbacks = metrics.Default.Counter("ppdb_snapshot_load_fallbacks_total",
		"loads that fell back to the previous generation because the newest was unusable")
)

// Durability: Save writes the PPDB's full logical state — policy, provider
// preferences, attribute sensitivities, table schemas, rows with provenance,
// and the simulated clock — into a directory of human-readable artifacts:
//
//	corpus.dsl            the policy + providers in the DSL
//	state.json            clock and table registry
//	tables/<t>.schema.sql CREATE TABLE statement
//	tables/<t>.csv        rows (header + data)
//	tables/<t>.meta.csv   per-row provenance (provider, inserted), row-aligned
//	MANIFEST.json         format version + SHA-256 of every artifact above
//
// Crash safety (DESIGN.md §9): Save never touches the live snapshot in
// place. It renders every artifact in memory, stages them into <dir>.tmp
// (fsyncing each file and the staged directories), and only then rotates
// generations: the current <dir> is renamed to <dir>.prev (replacing the
// previous generation) and the staging directory is renamed over <dir>.
// A crash at any instant therefore leaves at least one complete,
// manifest-verifiable generation on disk.
//
// Load rebuilds a DB from such a directory. It verifies the manifest —
// format version, presence and SHA-256 of every artifact — before parsing
// a byte, rejects torn or corrupted snapshots with a diagnostic naming the
// offending artifact, and falls back to <dir>.prev when <dir> is unusable.
// Runtime-only configuration (generalization hierarchies, retention
// schedule, assessor options) is supplied by the caller's Config, whose
// Policy field is ignored in favour of the saved one.
//
// Failure sites in the save path are registered with internal/fault
// ("persist.write.<artifact>", "persist.sync.dir", "persist.prune.prev",
// "persist.rename.prev", "persist.rename.live", "persist.sync.parent");
// the crash-matrix test arms each in turn and proves recovery.

// FormatVersion is the snapshot format Save writes. Version 2 added the
// manifest's walLSN checkpoint field; Load also accepts version 1
// (walLSN 0 — the whole WAL replays over it).
const FormatVersion = 2

// minFormatVersion is the oldest snapshot format Load accepts.
const minFormatVersion = 1

const (
	manifestName = "MANIFEST.json"
	tmpSuffix    = ".tmp"
	prevSuffix   = ".prev"
)

// manifestJSON indexes a snapshot generation: every artifact with its
// SHA-256, so Load can prove the generation complete and untorn before
// trusting any of it.
type manifestJSON struct {
	FormatVersion int       `json:"formatVersion"`
	SavedAt       time.Time `json:"savedAt"`
	// WALLSN is the checkpoint: the highest WAL LSN whose effects this
	// snapshot is guaranteed to contain. Recovery replays the log from
	// here. Zero for DBs saved without an attached WAL.
	WALLSN uint64            `json:"walLSN,omitempty"`
	Files  map[string]string `json:"files"` // rel path → SHA-256 hex
}

// stateJSON is the serialized registry.
type stateJSON struct {
	Now    time.Time            `json:"now"`
	Tables map[string]tableJSON `json:"tables"`
}

type tableJSON struct {
	ProviderCol string `json:"providerCol"`
}

// Save atomically replaces the snapshot at dir with the database's current
// state, keeping the displaced generation at <dir>.prev. On error the
// snapshot at dir (if any) is untouched.
//
//lint:deterministic snapshot bytes must be identical across runs and shard counts
func (d *DB) Save(dir string) error {
	_, err := d.save(dir)
	return err
}

// save is Save returning the WAL checkpoint LSN it recorded in the
// manifest (0 with no WAL attached) — Checkpoint uses it to decide how far
// the log can be truncated.
//
// The recorded LSN is read *before* the state is rendered: any mutation
// with LSN ≤ it completed its apply (append and apply share a critical
// section) before rendering began, so its effects are in the snapshot;
// mutations racing the render have higher LSNs and are replayed over the
// snapshot on recovery — harmlessly, because every WAL record is
// idempotent.
func (d *DB) save(dir string) (uint64, error) {
	//lint:ignore determinism[wall-clock start feeds only the save-duration metric, never snapshot bytes]
	start := time.Now()
	d.mu.RLock()
	var lsn uint64
	if d.wal != nil {
		lsn = d.wal.LastLSN()
	}
	artifacts, savedAt, err := d.renderLocked()
	d.mu.RUnlock()
	if err == nil {
		err = writeSnapshot(dir, artifacts, savedAt, lsn)
	}
	if err != nil {
		mSaveErrors.Inc()
		return 0, err
	}
	mSaveSeconds.Observe(time.Since(start).Seconds())
	return lsn, nil
}

// renderLocked serializes the full state into artifact bytes keyed by
// snapshot-relative path. Pure rendering — no IO — so the read lock is
// held only as long as the state is being walked. Providers render in
// global sorted key order and each table renders independently (one
// goroutine per table, capped at the shard fan-out width), so the bytes
// are deterministic run to run and identical for every shard count.
func (d *DB) renderLocked() (map[string][]byte, time.Time, error) {
	artifacts := map[string][]byte{}

	// Corpus: policy + providers (+ Σ).
	doc := &policydsl.Document{
		Policy:   d.policy,
		AttrSens: d.attrSens,
		Scales:   d.scales,
	}
	_, doc.Providers = d.sortedProvidersShared()
	artifacts["corpus.dsl"] = []byte(policydsl.Render(doc))

	state := stateJSON{Now: d.now, Tables: map[string]tableJSON{}}
	// Tables in sorted name order so the artifact renders are deterministic
	// run to run (map iteration order is not).
	tableNames := make([]string, 0, len(d.tables))
	for n := range d.tables {
		tableNames = append(tableNames, n)
	}
	sort.Strings(tableNames)
	type tableRender struct {
		schema, data, meta []byte
		err                error
	}
	renders := make([]tableRender, len(tableNames))
	core.FanOut(len(tableNames), len(d.shards), func(i int) {
		name := tableNames[i]
		tm := d.tables[name]

		schemaSQL := fmt.Sprintf("CREATE TABLE %s (%s)", name, tm.table.Schema())
		renders[i].schema = []byte(schemaSQL + "\n")

		var dataBuf, metaBuf strings.Builder
		metaWriter := csv.NewWriter(&metaBuf)
		if err := metaWriter.Write([]string{"provider", "inserted"}); err != nil {
			renders[i].err = err
			return
		}
		// Rows in scan (insertion) order so meta lines align.
		var scanErr error
		var rowsOut []relational.Row
		schema := tm.table.Schema()
		cols := make([]string, schema.Len())
		for j := range cols {
			cols[j] = schema.Column(j).Name
		}
		tm.table.Scan(func(id relational.RowID, row relational.Row) bool {
			meta, ok := tm.rows[id]
			if !ok {
				scanErr = fmt.Errorf("ppdb: row %d of %s has no provenance", id, name)
				return false
			}
			rowsOut = append(rowsOut, row)
			if err := metaWriter.Write([]string{meta.provider, meta.inserted.Format(time.RFC3339Nano)}); err != nil {
				scanErr = err
				return false
			}
			return true
		})
		if scanErr != nil {
			renders[i].err = scanErr
			return
		}
		metaWriter.Flush()
		if err := metaWriter.Error(); err != nil {
			renders[i].err = err
			return
		}
		if err := relational.ExportCSV(&dataBuf, cols, rowsOut); err != nil {
			renders[i].err = fmt.Errorf("ppdb: save rows %s: %w", name, err)
			return
		}
		renders[i].data = []byte(dataBuf.String())
		renders[i].meta = []byte(metaBuf.String())
	})
	for i, name := range tableNames {
		if renders[i].err != nil {
			return nil, time.Time{}, renders[i].err
		}
		state.Tables[name] = tableJSON{ProviderCol: d.tables[name].providerCol}
		artifacts[filepath.Join("tables", name+".schema.sql")] = renders[i].schema
		artifacts[filepath.Join("tables", name+".csv")] = renders[i].data
		artifacts[filepath.Join("tables", name+".meta.csv")] = renders[i].meta
	}
	stateBytes, err := json.MarshalIndent(state, "", "  ")
	if err != nil {
		return nil, time.Time{}, err
	}
	artifacts["state.json"] = append(stateBytes, '\n')
	return artifacts, d.now, nil
}

// writeSnapshot stages the artifacts into <dir>.tmp, fsyncs everything,
// then rotates generations: <dir> → <dir>.prev, <dir>.tmp → <dir>. A
// simulated crash (fault.IsCrash) aborts with zero cleanup so tests see
// exactly the debris a real crash would leave.
func writeSnapshot(dir string, artifacts map[string][]byte, savedAt time.Time, walLSN uint64) (err error) {
	tmp, prev := dir+tmpSuffix, dir+prevSuffix
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("ppdb: save: clear staging: %w", err)
	}
	defer func() {
		if err != nil && !fault.IsCrash(err) {
			// The save failed cleanly: tear down the staging debris. The
			// live snapshot and previous generation are what matter.
			//lint:ignore errflow best-effort staging cleanup after a failed save
			os.RemoveAll(tmp)
		}
	}()
	if err = os.MkdirAll(filepath.Join(tmp, "tables"), 0o755); err != nil {
		return fmt.Errorf("ppdb: save: stage: %w", err)
	}

	man := manifestJSON{FormatVersion: FormatVersion, SavedAt: savedAt, WALLSN: walLSN, Files: map[string]string{}}
	rels := make([]string, 0, len(artifacts))
	for rel := range artifacts {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		if err = writeArtifact(tmp, rel, artifacts[rel]); err != nil {
			return err
		}
		sum := sha256.Sum256(artifacts[rel])
		man.Files[rel] = hex.EncodeToString(sum[:])
	}
	manBytes, merr := json.MarshalIndent(man, "", "  ")
	if merr != nil {
		return merr
	}
	if err = writeArtifact(tmp, manifestName, append(manBytes, '\n')); err != nil {
		return err
	}
	if err = fault.Point("persist.sync.dir"); err != nil {
		return err
	}
	if err = syncDirs(filepath.Join(tmp, "tables"), tmp); err != nil {
		return err
	}

	// Rotation. Crash windows and their recovery:
	//   before rename(dir, prev): dir is the intact old generation;
	//   between the renames:      dir is gone, prev is the old generation
	//                             — Load falls back to prev;
	//   after rename(tmp, dir):   dir is the new generation, prev the old.
	if _, statErr := os.Stat(dir); statErr == nil {
		if err = fault.Point("persist.prune.prev"); err != nil {
			return err
		}
		if err = os.RemoveAll(prev); err != nil {
			return fmt.Errorf("ppdb: save: prune previous generation: %w", err)
		}
		if err = fault.Point("persist.rename.prev"); err != nil {
			return err
		}
		if err = os.Rename(dir, prev); err != nil {
			return fmt.Errorf("ppdb: save: retire current generation: %w", err)
		}
	}
	if err = fault.Point("persist.rename.live"); err != nil {
		return err
	}
	if err = os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("ppdb: save: publish snapshot: %w", err)
	}
	if err = fault.Point("persist.sync.parent"); err != nil {
		return err
	}
	return syncDirs(filepath.Dir(dir))
}

// writeArtifact writes one staged file and fsyncs it. The bytes pass
// through a fault.WritePoint: a simulated crash at the site leaves a torn
// file — half the bytes — and a short-write/flip-byte arming lands
// silently corrupted data, so recovery and manifest verification are
// tested against real debris.
func writeArtifact(root, rel string, data []byte) error {
	path := filepath.Join(root, rel)
	data, ferr := fault.WritePoint("persist.write."+rel, data)
	if ferr != nil {
		if fault.IsCrash(ferr) {
			//lint:ignore errflow simulating a torn write; the crash error is what propagates
			os.WriteFile(path, data, 0o644)
		}
		return ferr
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ppdb: save %s: %w", rel, err)
	}
	if _, err := f.Write(data); err != nil {
		//lint:ignore errflow the write error is the diagnosis; close is cleanup
		f.Close()
		return fmt.Errorf("ppdb: save %s: %w", rel, err)
	}
	if err := f.Sync(); err != nil {
		//lint:ignore errflow the sync error is the diagnosis; close is cleanup
		f.Close()
		return fmt.Errorf("ppdb: sync %s: %w", rel, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ppdb: close %s: %w", rel, err)
	}
	return nil
}

// syncDirs fsyncs directories so the staged entries (and later the rename)
// are durable, not just the file contents.
func syncDirs(dirs ...string) error {
	for _, dir := range dirs {
		f, err := os.Open(dir)
		if err != nil {
			return fmt.Errorf("ppdb: sync dir %s: %w", dir, err)
		}
		serr := f.Sync()
		cerr := f.Close()
		if serr != nil {
			return fmt.Errorf("ppdb: sync dir %s: %w", dir, serr)
		}
		if cerr != nil {
			return fmt.Errorf("ppdb: sync dir %s: %w", dir, cerr)
		}
	}
	return nil
}

// Load rebuilds a DB from a snapshot directory written by Save. The newest
// generation at dir is manifest-verified before any of it is parsed; if it
// is missing, torn, or corrupted, Load falls back to the previous
// generation at <dir>.prev. cfg supplies the runtime-only configuration
// (hierarchies, retention, options, scales); its Policy and Start fields
// are ignored — the saved policy and clock win.
func Load(dir string, cfg Config) (*DB, error) {
	start := time.Now()
	db, err := loadSnapshot(dir, cfg)
	if err == nil {
		mLoadSeconds.Observe(time.Since(start).Seconds())
		return db, nil
	}
	prev := dir + prevSuffix
	if _, statErr := os.Stat(filepath.Join(prev, manifestName)); statErr != nil {
		return nil, err
	}
	mLoadFallbacks.Inc()
	db, prevErr := loadSnapshot(prev, cfg)
	if prevErr != nil {
		return nil, fmt.Errorf("ppdb: load: snapshot unusable (%v); previous generation also unusable: %w", err, prevErr)
	}
	mLoadSeconds.Observe(time.Since(start).Seconds())
	return db, nil
}

// verifySnapshot reads the manifest and every artifact it lists, checking
// format version and SHA-256s. It returns the verified artifact bytes (so
// the loader only ever parses content the manifest vouches for) plus the
// manifest itself, whose walLSN anchors WAL replay.
func verifySnapshot(dir string) (map[string][]byte, manifestJSON, error) {
	var man manifestJSON
	manBytes, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, man, fmt.Errorf("ppdb: load %s: no readable manifest (torn, pre-manifest, or not a snapshot): %w", dir, err)
	}
	if err := json.Unmarshal(manBytes, &man); err != nil {
		return nil, man, fmt.Errorf("ppdb: load %s: corrupt manifest: %w", dir, err)
	}
	if man.FormatVersion < minFormatVersion || man.FormatVersion > FormatVersion {
		return nil, man, fmt.Errorf("ppdb: load %s: snapshot format %d, this build reads formats %d-%d", dir, man.FormatVersion, minFormatVersion, FormatVersion)
	}
	for _, required := range []string{"corpus.dsl", "state.json"} {
		if _, ok := man.Files[required]; !ok {
			return nil, man, fmt.Errorf("ppdb: load %s: manifest lists no %s", dir, required)
		}
	}
	arts := make(map[string][]byte, len(man.Files))
	rels := make([]string, 0, len(man.Files))
	for rel := range man.Files {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			return nil, man, fmt.Errorf("ppdb: load %s: artifact %s listed in manifest is unreadable: %w", dir, rel, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != man.Files[rel] {
			return nil, man, fmt.Errorf("ppdb: load %s: artifact %s is torn or corrupted (sha256 %s, manifest says %s)", dir, rel, got, man.Files[rel])
		}
		arts[rel] = data
	}
	return arts, man, nil
}

// loadSnapshot verifies and parses one generation.
func loadSnapshot(dir string, cfg Config) (*DB, error) {
	arts, man, err := verifySnapshot(dir)
	if err != nil {
		return nil, err
	}
	artifact := func(rel string) ([]byte, error) {
		data, ok := arts[rel]
		if !ok {
			return nil, fmt.Errorf("ppdb: load %s: artifact %s is not listed in the manifest", dir, rel)
		}
		return data, nil
	}

	corpusBytes, err := artifact("corpus.dsl")
	if err != nil {
		return nil, err
	}
	doc, err := policydsl.Parse(string(corpusBytes))
	if err != nil {
		return nil, fmt.Errorf("ppdb: load corpus: %w", err)
	}
	if doc.Policy == nil {
		return nil, fmt.Errorf("ppdb: saved corpus has no policy")
	}
	stateBytes, err := artifact("state.json")
	if err != nil {
		return nil, err
	}
	var state stateJSON
	if err := json.Unmarshal(stateBytes, &state); err != nil {
		return nil, fmt.Errorf("ppdb: load state: %w", err)
	}

	cfg.Policy = doc.Policy
	if len(doc.AttrSens) > 0 {
		cfg.AttrSens = doc.AttrSens
	}
	cfg.Start = state.Now
	db, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// Bulk registration: one cold ledger build fanned out across the
	// worker pool instead of N serial upserts.
	if err := db.RegisterProviders(doc.Providers); err != nil {
		return nil, err
	}

	names := make([]string, 0, len(state.Tables))
	for n := range state.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		tj := state.Tables[name]
		schemaSQL, err := artifact(filepath.Join("tables", name+".schema.sql"))
		if err != nil {
			return nil, err
		}
		st, err := relational.Parse(string(schemaSQL))
		if err != nil {
			return nil, fmt.Errorf("ppdb: load schema %s: %w", name, err)
		}
		create, ok := st.(relational.CreateTableStmt)
		if !ok {
			return nil, fmt.Errorf("ppdb: schema file for %s is not a CREATE TABLE", name)
		}
		schema, err := relational.NewSchema(create.Cols)
		if err != nil {
			return nil, err
		}
		if err := db.RegisterTable(name, schema, tj.ProviderCol); err != nil {
			return nil, err
		}

		dataBytes, err := artifact(filepath.Join("tables", name+".csv"))
		if err != nil {
			return nil, err
		}
		rows, err := relational.ReadCSV(schema, strings.NewReader(string(dataBytes)))
		if err != nil {
			return nil, fmt.Errorf("ppdb: load rows %s: %w", name, err)
		}
		metaBytes, err := artifact(filepath.Join("tables", name+".meta.csv"))
		if err != nil {
			return nil, err
		}
		metaRecords, err := csv.NewReader(strings.NewReader(string(metaBytes))).ReadAll()
		if err != nil {
			return nil, fmt.Errorf("ppdb: load provenance %s: %w", name, err)
		}
		if len(metaRecords) != len(rows)+1 {
			return nil, fmt.Errorf("ppdb: provenance for %s has %d records for %d rows", name, len(metaRecords), len(rows))
		}
		for i, row := range rows {
			parts := metaRecords[i+1]
			if len(parts) != 2 {
				return nil, fmt.Errorf("ppdb: bad provenance record %d for %s", i+2, name)
			}
			inserted, err := time.Parse(time.RFC3339Nano, parts[1])
			if err != nil {
				return nil, fmt.Errorf("ppdb: bad provenance time for %s row %d: %w", name, i+1, err)
			}
			id, err := db.Insert(name, parts[0], row)
			if err != nil {
				return nil, fmt.Errorf("ppdb: reload %s row %d: %w", name, i+1, err)
			}
			db.mu.Lock()
			db.tables[name].rows[id].inserted = inserted
			db.mu.Unlock()
		}
	}
	// Remember the snapshot's WAL high-water mark: AttachWAL replays only
	// records after it.
	db.loadedLSN = man.WALLSN
	return db, nil
}
