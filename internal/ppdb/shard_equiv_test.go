package ppdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/population"
	"repro/internal/whatif"
)

// procSweep are the fan-out widths the equivalence sweeps run at. Every
// population fan-out (core.FanOut) cuts its sorted input into GOMAXPROCS
// contiguous key ranges — the "shards" the sweep tests are named after:
// serial, a small power of two, and more ranges than this box has CPUs.
var procSweep = []int{1, 2, 8}

// setProcs sets GOMAXPROCS, and with it the fan-out width, for the rest of
// the test.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// buildSweepDB drives one full mutation history — bulk build, serial
// adds, self-service edits, removals, a policy swap — and returns the DB.
func buildSweepDB(t *testing.T, seed uint64) *DB {
	t.Helper()
	gen := equivGenerator(t, seed)
	pop := population.PrefsOf(gen.Generate(200))
	db, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProviders(pop[:150]); err != nil {
		t.Fatal(err)
	}
	for _, p := range pop[150:] {
		if err := db.RegisterProvider(p); err != nil {
			t.Fatal(err)
		}
	}
	edits := population.PrefsOf(equivGenerator(t, seed+7000).Generate(200))
	for i, p := range edits {
		if i%5 == 0 {
			if err := db.UpdatePreferences(p.Provider, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, p := range pop {
		if i%17 == 0 {
			if _, err := db.RemoveProvider(p.Provider); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := db.SetPolicy(equivPolicy("v2", 3)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestShardCountCertifyEquivalence is the fan-out-width sweep of the
// ledger equivalence suite: the same mutation history at GOMAXPROCS 1, 2
// and 8 must produce byte-identical Certify and what-if output — the
// width decides only how work is split, never an answer. Within each
// width Certify must also still match the stateless recompute.
func TestShardCountCertifyEquivalence(t *testing.T) {
	req := &whatif.Request{U: 10, T: 1, Detail: true, Diff: whatif.Diff{
		Retarget:    []whatif.TupleSpec{{Attribute: "weight", Purpose: "service", Visibility: 1, Granularity: 1, Retention: 1}},
		Sensitivity: []whatif.SensitivityChange{{Attribute: "income", Value: 7}},
	}}
	for _, seed := range []uint64{1, 2011} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			var baseline []byte
			for _, procs := range procSweep {
				setProcs(t, procs)
				db := buildSweepDB(t, seed)
				if got := db.ShardCount(); got != 1 {
					t.Fatalf("ShardCount() = %d, want 1", got)
				}
				requireCertEquiv(t, db, 0.25, fmt.Sprintf("procs=%d", procs))
				cert, err := db.Certify(0.25)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := db.WhatIf(req)
				if err != nil {
					t.Fatal(err)
				}
				out := append(mustJSON(t, cert), mustJSON(t, resp)...)
				if baseline == nil {
					baseline = out // procs=1: the serial oracle
					continue
				}
				if !bytes.Equal(out, baseline) {
					t.Errorf("procs=%d certification or what-if diverges from serial\nserial: %.300s\nwide:   %.300s",
						procs, baseline, out)
				}
			}
		})
	}
}

// TestShardSnapshotByteCompat saves the same database state at every
// sweep width and requires every artifact — providers, policy, tables,
// MANIFEST.json — to be byte-identical: the snapshot render fans out
// over the tables, and its bytes must not depend on how wide.
func TestShardSnapshotByteCompat(t *testing.T) {
	read := func(t *testing.T, dir string) map[string][]byte {
		t.Helper()
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}

	var baseline map[string][]byte
	for _, procs := range procSweep {
		setProcs(t, procs)
		db := buildSweepDB(t, 42)
		dir := filepath.Join(t.TempDir(), "snap")
		if err := db.Save(dir); err != nil {
			t.Fatalf("procs=%d: Save: %v", procs, err)
		}
		files := read(t, dir)
		if baseline == nil {
			baseline = files
			if len(baseline) == 0 {
				t.Fatal("empty snapshot")
			}
			continue
		}
		if len(files) != len(baseline) {
			t.Errorf("procs=%d: %d artifacts, serial wrote %d", procs, len(files), len(baseline))
		}
		for name, want := range baseline {
			got, ok := files[name]
			if !ok {
				t.Errorf("procs=%d: artifact %s missing", procs, name)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("procs=%d: artifact %s differs from the serial snapshot", procs, name)
			}
		}
	}
}

// TestShardSnapshotRoundTrip loads a snapshot written at the widest sweep
// width at every width, the deprecated Config.Shards set to match, and
// requires certification to survive the trip unchanged.
func TestShardSnapshotRoundTrip(t *testing.T) {
	setProcs(t, procSweep[len(procSweep)-1])
	src := buildSweepDB(t, 7)
	want, err := src.Certify(0.25)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := src.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, procs := range procSweep {
		setProcs(t, procs)
		db, err := Load(dir, Config{Shards: procs})
		if err != nil {
			t.Fatalf("procs=%d: Load: %v", procs, err)
		}
		got, err := db.Certify(0.25)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
			t.Errorf("procs=%d: certification changed across save/load", procs)
		}
		requireCertEquiv(t, db, 0.25, fmt.Sprintf("loaded procs=%d", procs))
	}
}

// TestShardConfigValidation pins the deprecated Config.Shards shim: every
// value, negative included, builds the one provider table, and ShardCount
// reports 1.
func TestShardConfigValidation(t *testing.T) {
	gen := equivGenerator(t, 1)
	for _, shards := range []int{-1, 0, 1, 8} {
		db, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities(), Shards: shards})
		if err != nil {
			t.Fatalf("Shards: %d: %v", shards, err)
		}
		if got := db.ShardCount(); got != 1 {
			t.Errorf("Shards: %d: ShardCount() = %d, want 1", shards, got)
		}
	}
}
