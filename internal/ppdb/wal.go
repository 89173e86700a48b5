package ppdb

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/metrics"
	"repro/internal/policydsl"
	"repro/internal/privacy"
	"repro/internal/wal"
)

// Write-ahead logging (DESIGN.md §14). Every certification-bearing
// mutation — provider registration or delete, policy swap, clock
// advance, retention sweep — appends one record to the WAL *before* it is
// applied, under the same lock that serializes the apply, so WAL order
// equals apply order exactly. The durability wait (group commit) happens
// after the locks release, so concurrent mutations share fsyncs.
//
// Replay drives the same public mutation paths the records were logged
// from, while d.wal is still nil (appends are no-ops until AttachWAL arms
// them), and every record is idempotent — an upsert re-registers the same
// preferences, a delete of an absent provider is a no-op, clock records
// carry absolute times — so a record whose effect already reached the
// snapshot replays harmlessly.
//
// Row-level table mutations (Insert, ImportCSV, UpdateOwnRow) are *not*
// WAL-logged: rows ride snapshots only, and rows inserted after the last
// checkpoint are lost on crash. The WAL covers the state certifications
// are computed from. Row paths still bump mutSeq so checkpoints notice
// them.
//
// Preferences and policies are logged as policy DSL, the text HTTP
// bodies, corpus files and snapshots carry: a provider record is Render of
// its provider blocks, a policy record Render of the policy block, and
// replay parses them back. Types 1, 2 and 4 held the JSON encoding of
// older builds; they are retired, so such a record stops replay as an
// unknown type (DESIGN.md §14 gives the upgrade rule).
const (
	walRecDelete    byte = 3 // provider removal (walDeleteJSON)
	walRecClock     byte = 5 // clock advance, absolute (walClockJSON)
	walRecSweep     byte = 6 // retention sweep at its clock reading (walSweepJSON)
	walRecProviders byte = 7 // provider registrations, one atomic batch (DSL provider blocks)
	walRecPolicy    byte = 8 // policy swap (DSL policy block)
)

var mRecoverySeconds = metrics.Default.Histogram("ppdb_recovery_seconds",
	"duration of store recovery: snapshot load plus WAL tail replay", metrics.DefBuckets)

// walDeleteJSON names the removed provider by key. A JSON string carries
// only valid UTF-8, so a key that is not valid UTF-8 is logged Go-quoted
// in Quoted, with Provider empty; every other key is logged in Provider.
type walDeleteJSON struct {
	Provider string `json:"provider"`
	Quoted   string `json:"quoted,omitempty"`
}

// walDelete is the delete record of key.
func walDelete(key string) walDeleteJSON {
	if utf8.ValidString(key) {
		return walDeleteJSON{Provider: key}
	}
	return walDeleteJSON{Quoted: strconv.Quote(key)}
}

// walClockJSON carries the absolute post-advance clock, not the delta:
// sweeps decide expirations from the clock, so replay must land on the
// exact same instants regardless of what the snapshot's clock was.
type walClockJSON struct {
	Now time.Time `json:"now"`
}

type walSweepJSON struct {
	At time.Time `json:"at"`
}

// walRecord is one WAL record: its type, its value and, once encoded,
// the body — DSL for preferences and policies, JSON for the rest.
type walRecord struct {
	typ  byte
	v    any
	body []byte
}

func (r *walRecord) encode() error {
	if r.body != nil {
		return nil
	}
	switch v := r.v.(type) {
	case []*privacy.Prefs:
		r.body = []byte(policydsl.Render(&policydsl.Document{Providers: v}))
	case *privacy.HousePolicy:
		r.body = []byte(policydsl.Render(&policydsl.Document{Policy: v}))
	default:
		body, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("ppdb: wal encode record type %d: %w", r.typ, err)
		}
		r.body = body
	}
	return nil
}

// walEncode encodes a record whose value the request fixes (a
// registration, a delete, a policy) before the caller takes the lock it is
// appended under, so the exclusive section only appends. With no WAL
// attached it encodes nothing. On error the caller must not apply.
func (d *DB) walEncode(typ byte, v any) (walRecord, error) {
	rec := walRecord{typ: typ, v: v}
	if d.wal.Load() == nil {
		return rec, nil
	}
	return rec, rec.encode()
}

// walAppendLocked appends rec to the WAL, encoding it first unless
// walEncode already did (a clock or sweep record reads state under the
// lock; a record encoded while no WAL was attached has no body). The
// caller holds the lock that serializes the mutation being logged — the
// returned LSN's position in the log therefore matches the mutation's
// position in the apply order. Returns LSN 0 (and no error) when no WAL
// is attached. On error the caller must abort without applying: a
// mutation the log rejected would vanish on recovery.
func (d *DB) walAppendLocked(rec walRecord) (uint64, error) {
	w := d.wal.Load()
	if w == nil {
		return 0, nil
	}
	if err := rec.encode(); err != nil {
		return 0, err
	}
	lsn, err := w.AppendAsync(wal.Record{Type: rec.typ, Data: rec.body})
	if err != nil {
		return 0, fmt.Errorf("ppdb: wal append: %w", err)
	}
	return lsn, nil
}

// walWait blocks until lsn is durable — the commit-wait half of group
// commit, called after every serializing lock has been released. A zero
// lsn (mutation predates AttachWAL, or WAL disabled) waits on nothing.
func (d *DB) walWait(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	w := d.wal.Load()
	if w == nil {
		return nil
	}
	return w.WaitDurable(lsn)
}

// AttachWAL opens (or creates) the write-ahead log described by opts,
// replays every record past the checkpoint this DB was loaded from, and
// arms all future mutations to append-before-apply. Call exactly once,
// after New or Load and before the DB serves traffic. Returns the number
// of records replayed.
func (d *DB) AttachWAL(opts wal.Options) (int, error) {
	start := time.Now()
	d.mu.RLock()
	attached := d.wal.Load() != nil
	from := d.loadedLSN
	d.mu.RUnlock()
	if attached {
		return 0, fmt.Errorf("ppdb: WAL already attached")
	}
	if opts.FirstLSN == 0 {
		opts.FirstLSN = from + 1
	}
	l, err := wal.Open(opts)
	if err != nil {
		return 0, err
	}
	// A log that ends before the checkpoint can only mean the WAL
	// directory was lost independently of the snapshot; line the next LSN
	// up so positional history stays monotone.
	if err := l.EnsureFloor(from); err != nil {
		//lint:ignore errflow the floor error is the diagnosis; close is cleanup
		l.Close()
		return 0, err
	}
	n, err := l.Replay(from, func(lsn uint64, rec wal.Record) error {
		return d.applyWALRecord(rec)
	})
	if err != nil {
		//lint:ignore errflow the replay error is the diagnosis; close is cleanup
		l.Close()
		return n, fmt.Errorf("ppdb: wal replay: %w", err)
	}
	d.mu.Lock()
	d.wal.Store(l)
	d.mu.Unlock()
	d.ckptMu.Lock()
	d.lastCkptLSN = from
	d.ckptMu.Unlock()
	mRecoverySeconds.Observe(time.Since(start).Seconds())
	return n, nil
}

// applyWALRecord replays one record through the public mutation path it
// was logged from. Runs before AttachWAL publishes d.wal, so the replayed
// mutations do not re-append.
//
//lint:deterministic replaying the same records must rebuild identical state on every run
func (d *DB) applyWALRecord(rec wal.Record) error {
	switch rec.Type {
	case walRecProviders:
		doc, err := policydsl.Parse(string(rec.Data))
		if err != nil {
			return fmt.Errorf("ppdb: wal providers record: %w", err)
		}
		return d.RegisterProviders(doc.Providers)
	case walRecDelete:
		var dj walDeleteJSON
		err := json.Unmarshal(rec.Data, &dj)
		key := dj.Provider
		if err == nil && dj.Quoted != "" {
			key, err = strconv.Unquote(dj.Quoted)
		}
		if err != nil {
			return fmt.Errorf("ppdb: wal delete record: %w", err)
		}
		_, err = d.RemoveProvider(key)
		return err
	case walRecPolicy:
		doc, err := policydsl.Parse(string(rec.Data))
		if err != nil {
			return fmt.Errorf("ppdb: wal policy record: %w", err)
		}
		_, err = d.SetPolicy(doc.Policy)
		return err
	case walRecClock:
		var cj walClockJSON
		if err := json.Unmarshal(rec.Data, &cj); err != nil {
			return fmt.Errorf("ppdb: wal clock record: %w", err)
		}
		d.mu.Lock()
		d.now = cj.Now
		d.mu.Unlock()
		return nil
	case walRecSweep:
		var sj walSweepJSON
		if err := json.Unmarshal(rec.Data, &sj); err != nil {
			return fmt.Errorf("ppdb: wal sweep record: %w", err)
		}
		// The clock records preceding this one already landed the clock on
		// sj.At; pin it anyway so the sweep's expiry decisions are exactly
		// the logged ones.
		d.mu.Lock()
		d.now = sj.At
		d.mu.Unlock()
		_, err := d.Sweep()
		return err
	default:
		return fmt.Errorf("ppdb: unknown WAL record type %d", rec.Type)
	}
}

// CloseWAL performs a final group commit and detaches the log. Mutations
// applied after CloseWAL have no WAL coverage — call only on shutdown,
// after the last mutation.
func (d *DB) CloseWAL() error {
	d.mu.Lock()
	w := d.wal.Swap(nil)
	d.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// WALAttached reports whether a write-ahead log is armed.
func (d *DB) WALAttached() bool {
	return d.wal.Load() != nil
}

// WALLastLSN returns the highest LSN the attached log has assigned (the
// snapshot checkpoint LSN when nothing has been appended yet; 0 with no
// WAL).
func (d *DB) WALLastLSN() uint64 {
	w := d.wal.Load()
	if w == nil {
		return 0
	}
	return w.LastLSN()
}

// Checkpoint saves a snapshot if state changed since the last save, then
// prunes WAL segments older than the *previous* checkpoint — the retained
// tail always covers the fallback (.prev) generation too, so recovery
// works even when the newest snapshot is torn. Returns whether a save ran.
// Concurrent checkpoints serialize on ckptMu; mutations proceed normally.
func (d *DB) Checkpoint(dir string) (bool, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	seq := d.mutSeq.Load()
	if seq == d.savedSeq.Load() {
		return false, nil
	}
	lsn, err := d.save(dir)
	if err != nil {
		return false, err
	}
	d.savedSeq.Store(seq)
	w := d.wal.Load()
	if w == nil {
		return true, nil
	}
	prev := d.lastCkptLSN
	d.lastCkptLSN = lsn
	if err := w.TruncateBefore(prev); err != nil {
		return true, fmt.Errorf("ppdb: checkpoint truncate: %w", err)
	}
	return true, nil
}
