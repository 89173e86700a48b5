package ppdb

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/population"
	"repro/internal/wal"
)

// walTestOpts are aggressive group-commit settings so tests never wait on
// the 2ms default interval.
func walTestOpts(dir string) wal.Options {
	return wal.Options{Dir: dir, SyncEvery: 1, SyncInterval: time.Millisecond}
}

// walEquivConfig is the DB configuration shared by the WAL recovery tests;
// every incarnation of a database must be built from the same config for
// replay to reconstruct the same state.
func walEquivConfig(t *testing.T) Config {
	t.Helper()
	gen := equivGenerator(t, 99)
	return Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities()}
}

// buildWALDB drives a full mutation history — batch build, serial adds,
// removals, a policy swap, clock advances and a sweep — against a DB with
// the WAL attached from the start, so every mutation is logged.
func buildWALDB(t *testing.T, walDir string) *DB {
	t.Helper()
	db, err := New(walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(walTestOpts(walDir)); err != nil {
		t.Fatal(err)
	}
	pop := population.PrefsOf(equivGenerator(t, 99).Generate(120))
	if err := db.RegisterProviders(pop[:80]); err != nil {
		t.Fatal(err)
	}
	for _, p := range pop[80:] {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pop {
		if i%13 == 0 {
			if _, err := db.RemoveProvider(p.Provider); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := db.SetPolicy(equivPolicy("v2", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Advance(36 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Sweep(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestWALRecoveryFromEmptySnapshot rebuilds a database from nothing but its
// WAL: a fresh DB with the same config attached to the same log must replay
// the full history and certify byte-identically, at every fan-out width
// (the subtests keep the shards-N names procSweep documents).
func TestWALRecoveryFromEmptySnapshot(t *testing.T) {
	for _, procs := range procSweep {
		procs := procs
		t.Run(fmt.Sprintf("shards-%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			walDir := filepath.Join(t.TempDir(), "wal")
			db := buildWALDB(t, walDir)
			want := mustJSON(t, mustCertify(t, db, 0.25))
			wantLSN := db.WALLastLSN()
			if err := db.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			db2, err := New(walEquivConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			n, err := db2.AttachWAL(walTestOpts(walDir))
			if err != nil {
				t.Fatalf("recovery replay failed: %v", err)
			}
			if n == 0 {
				t.Fatal("replayed no records")
			}
			if got := db2.WALLastLSN(); got != wantLSN {
				t.Errorf("recovered WAL LSN = %d, want %d", got, wantLSN)
			}
			got := mustJSON(t, mustCertify(t, db2, 0.25))
			if !bytes.Equal(got, want) {
				t.Errorf("recovered certification diverges\nwant: %.300s\ngot:  %.300s", want, got)
			}
			requireCertEquiv(t, db2, 0.25, "after WAL-only recovery")
			if err := db2.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWALRecoveryAfterCheckpoint: a checkpoint moves history into the
// snapshot; recovery loads the snapshot and replays only the tail.
func TestWALRecoveryAfterCheckpoint(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	snapDir := filepath.Join(t.TempDir(), "snap")
	db := buildWALDB(t, walDir)
	ran, err := db.Checkpoint(snapDir)
	if err != nil || !ran {
		t.Fatalf("checkpoint ran=%v err=%v", ran, err)
	}

	// Post-checkpoint tail: a few upserts and a clock advance.
	tail := population.PrefsOf(equivGenerator(t, 1234).Generate(10))
	for _, p := range tail {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Advance(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, mustCertify(t, db, 0.25))
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, err := Load(snapDir, walEquivConfig(t))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	n, err := db2.AttachWAL(walTestOpts(walDir))
	if err != nil {
		t.Fatalf("tail replay failed: %v", err)
	}
	// Exactly the post-checkpoint records: 10 upserts + 1 clock advance.
	if n != 11 {
		t.Errorf("replayed %d records, want the 11 past the checkpoint", n)
	}
	got := mustJSON(t, mustCertify(t, db2, 0.25))
	if !bytes.Equal(got, want) {
		t.Errorf("recovered certification diverges\nwant: %.300s\ngot:  %.300s", want, got)
	}
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALCheckpointSkipsUnchanged: a checkpoint with no mutations since the
// last one is a no-op.
func TestWALCheckpointSkipsUnchanged(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	snapDir := filepath.Join(t.TempDir(), "snap")
	db := buildWALDB(t, walDir)
	defer db.CloseWAL()
	ran, err := db.Checkpoint(snapDir)
	if err != nil || !ran {
		t.Fatalf("first checkpoint ran=%v err=%v", ran, err)
	}
	ran, err = db.Checkpoint(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("checkpoint with unchanged state saved anyway")
	}
	// Any mutation re-arms it — including row-level ones the WAL does not
	// cover, which ride snapshots only.
	if _, err := db.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	ran, err = db.Checkpoint(snapDir)
	if err != nil || !ran {
		t.Fatalf("post-mutation checkpoint ran=%v err=%v", ran, err)
	}
}

// TestWALCheckpointTruncatesSegments: with tiny segments, checkpointing
// prunes WAL history older than the previous checkpoint, and recovery from
// the pruned log still works.
func TestWALCheckpointTruncatesSegments(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	snapDir := filepath.Join(t.TempDir(), "snap")
	db, err := New(walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	opts := walTestOpts(walDir)
	opts.SegmentBytes = 512
	if _, err := db.AttachWAL(opts); err != nil {
		t.Fatal(err)
	}
	pop := population.PrefsOf(equivGenerator(t, 99).Generate(60))
	for _, p := range pop[:30] {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	if ran, err := db.Checkpoint(snapDir); err != nil || !ran {
		t.Fatalf("checkpoint 1 ran=%v err=%v", ran, err)
	}
	for _, p := range pop[30:] {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	before, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// The second checkpoint prunes everything older than the first one.
	if ran, err := db.Checkpoint(snapDir); err != nil || !ran {
		t.Fatalf("checkpoint 2 ran=%v err=%v", ran, err)
	}
	after, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Errorf("checkpoint kept %d segments of %d; expected pruning", len(after), len(before))
	}
	want := mustJSON(t, mustCertify(t, db, 0.25))
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2, err := Load(snapDir, walEquivConfig(t))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := db2.AttachWAL(walTestOpts(walDir)); err != nil {
		t.Fatalf("replay over pruned log failed: %v", err)
	}
	got := mustJSON(t, mustCertify(t, db2, 0.25))
	if !bytes.Equal(got, want) {
		t.Error("recovery from pruned WAL diverges")
	}
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALAttachTwiceFails pins the attach-once contract.
func TestWALAttachTwiceFails(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := New(walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(walTestOpts(walDir)); err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	if !db.WALAttached() {
		t.Error("WALAttached() = false after attach")
	}
	if _, err := db.AttachWAL(walTestOpts(walDir)); err == nil {
		t.Error("second AttachWAL succeeded")
	}
}

// mustCertify is Certify with the error folded into the test.
func mustCertify(t *testing.T, db *DB, alpha float64) *Certification {
	t.Helper()
	cert, err := db.Certify(alpha)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}
