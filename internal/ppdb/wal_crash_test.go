package ppdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/population"
	"repro/internal/wal"
)

// walStep is one deterministic mutation that appends exactly one WAL
// record, so after running the first k steps the log holds LSNs 1..k.
type walStep struct {
	name string
	run  func(*DB) error
}

// walCrashSteps builds the deterministic mutation history the crash matrix
// kills at every point: a batch ingest, serial upserts, removals, a policy
// swap, clock advances and a retention sweep — every WAL record type.
func walCrashSteps(t testing.TB) []walStep {
	t.Helper()
	pop := population.PrefsOf(equivGenerator(t, 4242).Generate(24))
	late := population.PrefsOf(equivGenerator(t, 777).Generate(4))
	steps := []walStep{
		{"batch", func(d *DB) error { return d.RegisterProviders(pop[:8]) }},
	}
	for _, p := range pop[8:] {
		p := p
		steps = append(steps, walStep{"upsert-" + p.Provider, func(d *DB) error {
			return d.RegisterProvider(p)
		}})
	}
	steps = append(steps,
		walStep{"policy-v2", func(d *DB) error {
			_, err := d.SetPolicy(equivPolicy("v2", 3))
			return err
		}},
		walStep{"remove-0", func(d *DB) error { _, err := d.RemoveProvider(pop[0].Provider); return err }},
		walStep{"remove-5", func(d *DB) error { _, err := d.RemoveProvider(pop[5].Provider); return err }},
		walStep{"advance-24h", func(d *DB) error { _, err := d.Advance(24 * time.Hour); return err }},
		walStep{"sweep", func(d *DB) error { _, err := d.Sweep(); return err }},
		walStep{"advance-12h", func(d *DB) error { _, err := d.Advance(12 * time.Hour); return err }},
	)
	for _, p := range late {
		p := p
		steps = append(steps, walStep{"late-" + p.Provider, func(d *DB) error {
			return d.RegisterProvider(p)
		}})
	}
	return steps
}

// walCrashConfig is the DB config every incarnation in the matrix shares.
func walCrashConfig(t testing.TB) Config {
	t.Helper()
	gen := equivGenerator(t, 4242)
	return Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities()}
}

// walCrashOpts forces a group commit per step (exact step↔LSN accounting)
// and tiny segments so rotation fires throughout the workload.
func walCrashOpts(dir string) wal.Options {
	opts := walTestOpts(dir)
	opts.SegmentBytes = 512
	return opts
}

// walMutationSites enumerates every WAL fault-injection site a clean run of
// the workload passes through, by tracing it — new sites added to the WAL
// hot path join the crash matrix automatically.
func walMutationSites(t *testing.T) []string {
	t.Helper()
	defer fault.Reset()
	db, err := New(walCrashConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(walCrashOpts(filepath.Join(t.TempDir(), "wal"))); err != nil {
		t.Fatal(err)
	}
	fault.StartTrace()
	for _, st := range walCrashSteps(t) {
		if err := st.run(db); err != nil {
			t.Fatalf("clean run step %s: %v", st.name, err)
		}
	}
	all := fault.StopTrace()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	var sites []string
	for _, s := range all {
		if strings.HasPrefix(s, "wal.") {
			sites = append(sites, s)
		}
	}
	return sites
}

// requireDBEquiv demands two databases certify byte-identically and write
// byte-identical snapshots. The manifests are compared field-wise because
// walLSN legitimately differs between a WAL-attached DB and the oracle.
func requireDBEquiv(t *testing.T, got, want *DB, label string) {
	t.Helper()
	gc, err := got.Certify(0.25)
	if err != nil {
		t.Fatalf("%s: Certify(got): %v", label, err)
	}
	wc, err := want.Certify(0.25)
	if err != nil {
		t.Fatalf("%s: Certify(want): %v", label, err)
	}
	if !bytes.Equal(mustJSON(t, gc), mustJSON(t, wc)) {
		t.Errorf("%s: certification diverges from the serial oracle\nwant: %.300s\ngot:  %.300s",
			label, mustJSON(t, wc), mustJSON(t, gc))
	}

	gotDir := filepath.Join(t.TempDir(), "got")
	wantDir := filepath.Join(t.TempDir(), "want")
	if err := got.Save(gotDir); err != nil {
		t.Fatalf("%s: Save(got): %v", label, err)
	}
	if err := want.Save(wantDir); err != nil {
		t.Fatalf("%s: Save(want): %v", label, err)
	}
	gt, wt := readTree(t, gotDir), readTree(t, wantDir)
	var gm, wm manifestJSON
	if err := json.Unmarshal([]byte(gt[manifestName]), &gm); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(wt[manifestName]), &wm); err != nil {
		t.Fatal(err)
	}
	if !gm.SavedAt.Equal(wm.SavedAt) || len(gm.Files) != len(wm.Files) {
		t.Errorf("%s: manifests disagree beyond walLSN", label)
	}
	for rel, sum := range wm.Files {
		if gm.Files[rel] != sum {
			t.Errorf("%s: artifact %s hash differs from the oracle", label, rel)
		}
	}
	delete(gt, manifestName)
	delete(wt, manifestName)
	if !sameTree(gt, wt) {
		t.Errorf("%s: snapshot bytes differ from the serial oracle", label)
	}
}

// TestWALCrashMatrix is the acceptance criterion for the WAL tentpole: for
// every fault site in the WAL hot path, at several points in the history,
// at every shard count — kill the process there, recover, and prove the
// recovered state is exactly a prefix of the mutation history: the
// recovered LSN k' is within [acked, acked+1] of the last acknowledged
// step, and certifications and snapshot bytes are identical to a serial
// (GOMAXPROCS 1) oracle that applied the first k' steps with no WAL at
// all — at every fan-out width in procSweep.
func TestWALCrashMatrix(t *testing.T) {
	sites := walMutationSites(t)
	if len(sites) < 3 {
		t.Fatalf("suspiciously few WAL injection sites traced: %v", sites)
	}
	steps := walCrashSteps(t)
	armPoints := []int{2, len(steps) / 2, len(steps) - 3}
	for _, site := range sites {
		site := site
		t.Run(site, func(t *testing.T) {
			crashes := 0
			for _, procs := range procSweep {
				setProcs(t, procs)
				for _, armAt := range armPoints {
					label := fmt.Sprintf("procs=%d armAt=%d", procs, armAt)
					func() {
						defer fault.Reset()
						walDir := filepath.Join(t.TempDir(), "wal")
						db, err := New(walCrashConfig(t))
						if err != nil {
							t.Fatal(err)
						}
						if _, err := db.AttachWAL(walCrashOpts(walDir)); err != nil {
							t.Fatal(err)
						}
						acked, crashed := 0, false
						for i, st := range steps {
							if i == armAt {
								fault.ArmCrash(site)
							}
							if err := st.run(db); err != nil {
								if !fault.IsCrash(err) {
									t.Fatalf("%s: step %d (%s) failed without a crash: %v", label, i, st.name, err)
								}
								crashed = true
								break
							}
							acked++
						}
						fault.Reset()
						//lint:ignore errflow the log is wedged; closing is best-effort teardown
						db.CloseWAL()
						if !crashed {
							// The site was not on the path past armAt (e.g. no
							// rotation left); other arm points cover it.
							return
						}
						crashes++

						// Kill-and-recover: a fresh DB replays the log.
						rec, err := New(walCrashConfig(t))
						if err != nil {
							t.Fatal(err)
						}
						if _, err := rec.AttachWAL(walTestOpts(walDir)); err != nil {
							t.Fatalf("%s: recovery after crash at %s failed: %v", label, site, err)
						}
						defer rec.CloseWAL()
						kPrime := int(rec.WALLastLSN())
						if kPrime < acked || kPrime > acked+1 {
							t.Fatalf("%s: recovered LSN %d, want within [%d, %d]", label, kPrime, acked, acked+1)
						}

						// Serial oracle: GOMAXPROCS 1, no WAL, first k' steps.
						prev := runtime.GOMAXPROCS(1)
						oracle, err := New(walCrashConfig(t))
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < kPrime; i++ {
							if err := steps[i].run(oracle); err != nil {
								t.Fatalf("%s: oracle step %d (%s): %v", label, i, steps[i].name, err)
							}
						}
						runtime.GOMAXPROCS(prev)
						requireDBEquiv(t, rec, oracle, label)
					}()
				}
			}
			if crashes == 0 {
				t.Errorf("site %s never crashed at any arm point", site)
			}
		})
	}
}

// TestWALCrashDuringCheckpointTruncate: a crash while pruning old segments
// loses nothing — the snapshot is already published and the surviving
// (over-long) log replays cleanly over it.
func TestWALCrashDuringCheckpointTruncate(t *testing.T) {
	defer fault.Reset()
	walDir := filepath.Join(t.TempDir(), "wal")
	snapDir := filepath.Join(t.TempDir(), "snap")
	db, err := New(walCrashConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(walCrashOpts(walDir)); err != nil {
		t.Fatal(err)
	}
	steps := walCrashSteps(t)
	for _, st := range steps {
		if err := st.run(db); err != nil {
			t.Fatal(err)
		}
	}
	// First checkpoint establishes a truncation floor; the second prunes up
	// to it and is the one killed mid-prune.
	if ran, err := db.Checkpoint(snapDir); err != nil || !ran {
		t.Fatalf("checkpoint 1 ran=%v err=%v", ran, err)
	}
	if _, err := db.Advance(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, mustCertify(t, db, 0.25))
	fault.ArmCrash("wal.checkpoint.truncate")
	if _, err := db.Checkpoint(snapDir); !fault.IsCrash(err) {
		t.Fatalf("checkpoint with truncate crash armed returned %v", err)
	}
	fault.Reset()
	//lint:ignore errflow the log is wedged; closing is best-effort teardown
	db.CloseWAL()

	rec, err := Load(snapDir, walCrashConfig(t))
	if err != nil {
		t.Fatalf("Load after truncate crash: %v", err)
	}
	if _, err := rec.AttachWAL(walTestOpts(walDir)); err != nil {
		t.Fatalf("replay after truncate crash: %v", err)
	}
	defer rec.CloseWAL()
	if got := mustJSON(t, mustCertify(t, rec, 0.25)); !bytes.Equal(got, want) {
		t.Error("recovery after truncate crash diverges")
	}
}

// TestWALCrashDuringReplay: a crash mid-replay leaves the DB unattached;
// retrying the attach recovers fully.
func TestWALCrashDuringReplay(t *testing.T) {
	defer fault.Reset()
	walDir := filepath.Join(t.TempDir(), "wal")
	db := buildWALDB(t, walDir)
	want := mustJSON(t, mustCertify(t, db, 0.25))
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	rec, err := New(walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	fault.ArmCrash("wal.replay")
	if _, err := rec.AttachWAL(walTestOpts(walDir)); !fault.IsCrash(err) {
		t.Fatalf("attach with replay crash armed returned %v", err)
	}
	fault.Reset()
	if rec.WALAttached() {
		t.Fatal("crashed attach left the WAL armed")
	}
	// The crashed replay may have applied a prefix; replaying the full log
	// over it must still converge — records are idempotent.
	if _, err := rec.AttachWAL(walTestOpts(walDir)); err != nil {
		t.Fatalf("retried attach failed: %v", err)
	}
	defer rec.CloseWAL()
	if got := mustJSON(t, mustCertify(t, rec, 0.25)); !bytes.Equal(got, want) {
		t.Error("recovery after replay crash diverges")
	}
}

// TestWALTornTailRecoveredAtLoad: silent corruption in the log's tail — a
// short write or a flipped byte — is detected, logged, counted and skipped
// at the next attach; recovery never fails, it just ends at the last good
// record.
func TestWALTornTailRecoveredAtLoad(t *testing.T) {
	for _, mode := range []string{"short-write", "flip-byte"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			defer fault.Reset()
			walDir := filepath.Join(t.TempDir(), "wal")
			db, err := New(walCrashConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AttachWAL(walTestOpts(walDir)); err != nil {
				t.Fatal(err)
			}
			steps := walCrashSteps(t)
			good := len(steps) - 1
			for _, st := range steps[:good] {
				if err := st.run(db); err != nil {
					t.Fatal(err)
				}
			}
			// The final record lands corrupted on disk with no error
			// reported — the write "succeeded".
			switch mode {
			case "short-write":
				fault.ArmShortWrite("wal.append", 5)
			case "flip-byte":
				fault.ArmFlipByte("wal.append", 12)
			}
			if err := steps[good].run(db); err != nil {
				t.Fatalf("silently corrupted step errored: %v", err)
			}
			fault.Reset()
			//lint:ignore errflow teardown of a log whose tail is garbage
			db.CloseWAL()

			rec, err := New(walCrashConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rec.AttachWAL(walTestOpts(walDir)); err != nil {
				t.Fatalf("attach over torn tail failed: %v", err)
			}
			defer rec.CloseWAL()
			if got := int(rec.WALLastLSN()); got != good {
				t.Errorf("recovered LSN %d, want the %d good records", got, good)
			}
			oracle, err := New(walCrashConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range steps[:good] {
				if err := st.run(oracle); err != nil {
					t.Fatal(err)
				}
			}
			requireDBEquiv(t, rec, oracle, mode)
		})
	}
}

// TestWALDirSurvivesSnapshotOnlyRestart: a DB loaded from a checkpoint
// whose WAL directory was wiped starts an empty log at the checkpoint LSN
// instead of reusing stale positions.
func TestWALDirSurvivesSnapshotOnlyRestart(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	snapDir := filepath.Join(t.TempDir(), "snap")
	db := buildWALDB(t, walDir)
	if ran, err := db.Checkpoint(snapDir); err != nil || !ran {
		t.Fatalf("checkpoint ran=%v err=%v", ran, err)
	}
	ckptLSN := db.WALLastLSN()
	want := mustJSON(t, mustCertify(t, db, 0.25))
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(snapDir, walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	n, err := rec.AttachWAL(walTestOpts(walDir))
	if err != nil {
		t.Fatalf("attach over wiped WAL dir: %v", err)
	}
	defer rec.CloseWAL()
	if n != 0 {
		t.Errorf("replayed %d records from a wiped log", n)
	}
	if got := rec.WALLastLSN(); got != ckptLSN {
		t.Errorf("fresh log starts at LSN %d, want the checkpoint's %d", got, ckptLSN)
	}
	if got := mustJSON(t, mustCertify(t, rec, 0.25)); !bytes.Equal(got, want) {
		t.Error("snapshot-only restart diverges")
	}
	// New mutations must keep assigning LSNs past the checkpoint.
	if _, err := rec.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := rec.WALLastLSN(); got != ckptLSN+1 {
		t.Errorf("post-restart mutation got LSN %d, want %d", got, ckptLSN+1)
	}
}
