package ppdb

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/policydsl"
	"repro/internal/population"
	"repro/internal/privacy"
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

// walSigmaShapes are providers whose σ the DSL records must carry
// exactly: σ on an attribute with no tuples (it still weighs the policy's
// implicit-zero conflicts), a per-purpose override equal to the attribute
// default, a provider that never defaults, and a quoted attribute name
// holding a space.
func walSigmaShapes() []*privacy.Prefs {
	svc := privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 2, Retention: 1}
	s := privacy.Sensitivity{Value: 2.5, Visibility: 1, Granularity: 3, Retention: 0.5}
	noTuples := privacy.NewPrefs("sigma-no-tuples", 6).Add("weight", svc)
	noTuples.SetSensitivity("income", privacy.Sensitivity{Value: 0.5, Visibility: 2, Granularity: 1, Retention: 4})
	noTuples.SetPurposeSensitivity("income", "service", privacy.Sensitivity{Value: 3, Visibility: 1, Granularity: 1, Retention: 1})
	sameOverride := privacy.NewPrefs("sigma-same-override", 9).Add("weight", svc)
	sameOverride.SetSensitivity("weight", s)
	sameOverride.SetPurposeSensitivity("weight", "service", s)
	never := privacy.NewPrefs("sigma-never-defaults", privacy.NoDefaultThreshold).Add("income", svc)
	quoted := privacy.NewPrefs("sigma-quoted-attr", 4).Add("blood type", svc).Add("weight", svc)
	quoted.SetSensitivity("blood type", s)
	quoted.SetPurposeSensitivity("blood type", "research", privacy.Sensitivity{Value: 1, Visibility: 2, Granularity: 2, Retention: 2})
	return []*privacy.Prefs{noTuples, sameOverride, never, quoted}
}

// buildWALDB drives a full mutation history — batch build, serial adds,
// removals, a policy swap, clock advances and a sweep — against a DB with
// the WAL attached from the start, so every mutation is logged. The
// providers include walSigmaShapes.
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
	for _, p := range walSigmaShapes() {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
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

// TestWALReplayKeepsNameBytes: a provider and a policy whose names hold a
// byte that is not UTF-8, parsed from DSL as the HTTP routes parse them,
// come back from the WAL byte for byte, σ shapes included: a store that
// replayed the log saves exactly the snapshot the store that wrote it
// saves.
func TestWALReplayKeepsNameBytes(t *testing.T) {
	doc, err := policydsl.Parse("policy \"clinic \xff v2\" {\n  attr weight {\n" +
		"    tuple purpose=service visibility=house granularity=specific retention=year\n  }\n}\n" +
		"provider \"bo\xffb\" threshold 5 {\n  attr weight {\n" +
		"    tuple purpose=service visibility=owner granularity=existential retention=transient\n  }\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := New(walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(walTestOpts(walDir)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProviders(append(doc.Providers, walSigmaShapes()...)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetPolicy(doc.Policy); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	wantDir := filepath.Join(t.TempDir(), "want")
	if err := db.Save(wantDir); err != nil {
		t.Fatal(err)
	}

	db2, err := New(walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := db2.AttachWAL(walTestOpts(walDir)); err != nil || n != 2 {
		t.Fatalf("replayed %d records, err %v; want 2", n, err)
	}
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	gotDir := filepath.Join(t.TempDir(), "got")
	if err := db2.Save(gotDir); err != nil {
		t.Fatal(err)
	}
	want, got := readTree(t, wantDir), readTree(t, gotDir)
	if !sameTree(got, want) {
		t.Errorf("replayed snapshot differs:\nwant corpus %q\ngot  corpus %q", want["corpus.dsl"], got["corpus.dsl"])
	}
	if p, ok := db2.Provider("bo\xffb"); !ok || p.Provider != "bo\xffb" || db2.Policy().Name != "clinic \xff v2" {
		t.Errorf("replayed names: provider %v, policy %q", p, db2.Policy().Name)
	}
}

// TestWALRetiredRecordTypesStopReplay: record types 1, 2 and 4 carried
// preferences and policies as JSON in older builds. No such record is ever
// read as DSL: AttachWAL fails at it as an unknown type and applies
// nothing.
func TestWALRetiredRecordTypesStopReplay(t *testing.T) {
	bodies := map[byte]string{
		1: `{"name":"ann","threshold":5,"tuples":{"weight":[{"purpose":"service","visibility":1,"granularity":1,"retention":1}]}}`,
		2: `[{"name":"ann","threshold":5,"tuples":{"weight":[{"purpose":"service","visibility":1,"granularity":1,"retention":1}]}}]`,
		4: `{"name":"v9","tuples":{"weight":[{"purpose":"service","visibility":4,"granularity":4,"retention":4}]}}`,
	}
	for _, typ := range []byte{1, 2, 4} {
		walDir := filepath.Join(t.TempDir(), "wal")
		l, err := wal.Open(walTestOpts(walDir))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(wal.Record{Type: typ, Data: []byte(bodies[typ])}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		db, err := New(walEquivConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		_, err = db.AttachWAL(walTestOpts(walDir))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown WAL record type %d", typ)) {
			t.Errorf("type %d: AttachWAL error %v, want an unknown record type", typ, err)
		}
		if db.NumProviders() != 0 || db.Policy().Name != "v1" || db.WALAttached() {
			t.Errorf("type %d: replay applied something: %d providers, policy %q, WAL attached %v",
				typ, db.NumProviders(), db.Policy().Name, db.WALAttached())
		}
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
