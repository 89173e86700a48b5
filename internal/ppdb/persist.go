package ppdb

import (
	"bytes"
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
	"repro/internal/privacy"
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
//	state.json            clock and table registry (provider column and
//	                      next row id per table)
//	tables/<t>.schema.sql CREATE TABLE statement
//	tables/<t>.csv        live rows in row-id order, each cell a lossless
//	                      literal (relational.ExportCSV)
//	tables/<t>.meta.csv   per-row provenance, row-aligned: row id, provider
//	                      key, insert instant, expired columns
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

// FormatVersion is the snapshot format Save writes. Version 3 keeps row
// ids, expired cells and each table's next row id, and writes cells
// losslessly; version 2 added the manifest's walLSN checkpoint field. Load
// also accepts versions 1 (walLSN 0 — the whole WAL replays over it) and
// 2; see restoreLegacyRows.
const FormatVersion = 3

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
	ProviderCol string           `json:"providerCol"`
	NextRowID   relational.RowID `json:"nextRowId"`
}

// provenanceColumns heads the format-3 provenance artifact
// tables/<t>.meta.csv: per live row, in row-id order, its id, provider
// key, insert instant (RFC 3339) and the columns sweeps have expired
// (space-separated, in schema order).
var provenanceColumns = []string{"row", "provider", "inserted", "expired"}

// Save atomically replaces the snapshot at dir with the database's current
// state, keeping the displaced generation at <dir>.prev. On error the
// snapshot at dir (if any) is untouched.
//
//lint:deterministic snapshot bytes must be identical across runs and fan-out widths
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
	if w := d.wal.Load(); w != nil {
		lsn = w.LastLSN()
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
// sorted key order and the tables render independently across the fan-out,
// each into its own slot, so the bytes are deterministic run to run and
// identical for every fan-out width.
func (d *DB) renderLocked() (map[string][]byte, time.Time, error) {
	artifacts := map[string][]byte{}

	// Corpus: policy + providers (+ Σ).
	doc := &policydsl.Document{
		Policy:   d.policy,
		AttrSens: d.attrSens,
		Scales:   d.scales,
	}
	doc.Providers = d.providersLocked()
	artifacts["corpus.dsl"] = []byte(policydsl.Render(doc))

	state := stateJSON{Now: d.now, Tables: map[string]tableJSON{}}
	// Tables in sorted name order so the artifact renders are deterministic
	// run to run (map iteration order is not).
	tableNames := d.tableNamesLocked()
	data, meta := make([][]byte, len(tableNames)), make([][]byte, len(tableNames))
	core.FanOut(len(tableNames), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i], meta[i] = renderTable(d.tables[tableNames[i]])
		}
	})
	for i, name := range tableNames {
		t := d.tables[name]
		state.Tables[name] = tableJSON{ProviderCol: t.ProviderCol(), NextRowID: t.nextID()}
		artifacts[filepath.Join("tables", name+".schema.sql")] = []byte(fmt.Sprintf("CREATE TABLE %s (%s)\n", name, t.schema))
		artifacts[filepath.Join("tables", name+".csv")] = data[i]
		artifacts[filepath.Join("tables", name+".meta.csv")] = meta[i]
	}
	stateBytes, err := json.MarshalIndent(state, "", "  ")
	if err != nil {
		return nil, time.Time{}, err
	}
	artifacts["state.json"] = append(stateBytes, '\n')
	return artifacts, d.now, nil
}

// renderTable renders one table's live rows and their provenance, both in
// row-id order, as the row and provenance artifacts.
func renderTable(t *rowTable) (data, meta []byte) {
	rows := make([]relational.Row, 0, t.live)
	prov := make([]relational.Row, 0, t.live)
	for id := range t.slots {
		s := &t.slots[id]
		if s.row == nil {
			continue
		}
		var expired []string
		for i, e := range s.expired {
			if e {
				expired = append(expired, t.schema.Column(i).Name)
			}
		}
		rows = append(rows, s.row)
		prov = append(prov, relational.Row{relational.Int(int64(id)), relational.Text(s.provider),
			relational.Text(s.inserted.Format(time.RFC3339Nano)), relational.Text(strings.Join(expired, " "))})
	}
	return relational.ExportCSV(t.columnNames(), rows), relational.ExportCSV(provenanceColumns, prov)
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
	return restore(arts, man, cfg)
}

// restore rebuilds a DB from a generation's verified artifacts.
func restore(arts map[string][]byte, man manifestJSON, cfg Config) (*DB, error) {
	artifact := func(rel string) ([]byte, error) {
		data, ok := arts[rel]
		if !ok {
			return nil, fmt.Errorf("ppdb: load: artifact %s is not listed in the manifest", rel)
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
		data, err := artifact(filepath.Join("tables", name+".csv"))
		if err != nil {
			return nil, err
		}
		meta, err := artifact(filepath.Join("tables", name+".meta.csv"))
		if err != nil {
			return nil, err
		}
		restoreRows := db.restoreRows
		if man.FormatVersion < 3 {
			restoreRows = db.restoreLegacyRows
		}
		db.mu.Lock()
		err = restoreRows(db.tables[name], data, meta, tj.NextRowID)
		db.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("ppdb: load rows %s: %w", name, err)
		}
	}
	// Remember the snapshot's WAL high-water mark: AttachWAL replays only
	// records after it.
	db.loadedLSN = man.WALLSN
	return db, nil
}

// restoreRows reloads a format-3 table: every row under its saved id with
// its saved provenance, then tombstones up to the saved next row id. The
// caller holds d.mu exclusively.
func (d *DB) restoreRows(t *rowTable, data, meta []byte, next relational.RowID) error {
	rows, err := relational.ReadExportedCSV(t.columnNames(), data)
	if err != nil {
		return err
	}
	prov, err := relational.ReadExportedCSV(provenanceColumns, meta)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	if len(prov) != len(rows) {
		return fmt.Errorf("provenance has %d records for %d rows", len(prov), len(rows))
	}
	for i, row := range rows {
		id, okID := prov[i][0].AsInt()
		provider, okP := prov[i][1].AsText()
		stamp, _ := prov[i][2].AsText()
		names, okN := prov[i][3].AsText()
		if !okID || !okP || !okN || id >= int64(next) {
			return fmt.Errorf("bad provenance record %v (next row id %d)", prov[i], next)
		}
		inserted, err := time.Parse(time.RFC3339Nano, stamp)
		if err != nil || inserted.Format(time.RFC3339Nano) != stamp {
			return fmt.Errorf("row %d: bad insert instant %s", id, prov[i][2])
		}
		expired, err := parseExpired(t, names)
		if err != nil {
			return fmt.Errorf("row %d: %w", id, err)
		}
		if err := d.addLocked(t, relational.RowID(id), rowSlot{row: row, provider: provider, inserted: inserted, expired: expired}); err != nil {
			return fmt.Errorf("row %d: %w", id, err)
		}
	}
	t.padTo(next)
	return nil
}

// parseExpired reads a provenance record's expired columns: names of the
// table's non-provider columns, space-separated, in schema order.
func parseExpired(t *rowTable, names string) ([]bool, error) {
	if names == "" {
		return nil, nil
	}
	expired := make([]bool, t.schema.Len())
	last := -1
	for _, name := range strings.Split(names, " ") {
		i, ok := t.schema.ColumnIndex(name)
		if !ok || i <= last || i == t.provIdx || t.schema.Column(i).Name != name {
			return nil, fmt.Errorf("bad expired columns %q", names)
		}
		expired[i], last = true, i
	}
	return expired, nil
}

// restoreLegacyRows reloads a format-1 or format-2 table, which saved
// neither row ids nor expired cells: rows take fresh dense ids in saved
// order, cells are read the way ReadCSV reads them, and the next row id
// follows the last row. The caller holds d.mu exclusively.
func (d *DB) restoreLegacyRows(t *rowTable, data, meta []byte, _ relational.RowID) error {
	rows, err := relational.ReadCSV(t.schema, bytes.NewReader(data))
	if err != nil {
		return err
	}
	r := csv.NewReader(bytes.NewReader(meta))
	r.FieldsPerRecord = 2 // provider, inserted
	records, err := r.ReadAll()
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	if len(records) != len(rows)+1 {
		return fmt.Errorf("provenance has %d records for %d rows", len(records), len(rows))
	}
	for i, row := range rows {
		parts := records[i+1]
		inserted, err := time.Parse(time.RFC3339Nano, parts[1])
		if err != nil {
			return fmt.Errorf("bad provenance time for row %d: %w", i+1, err)
		}
		if err := d.addLocked(t, relational.RowID(i), rowSlot{row: row, provider: privacy.ProviderKey(parts[0]), inserted: inserted}); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}
