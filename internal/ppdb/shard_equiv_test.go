package ppdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/population"
)

// shardSweepCounts are the shard configurations the equivalence sweep
// runs: serial, a small power of two, and more shards than providers per
// shard is comfortable with — exercising empty and skewed shards.
var shardSweepCounts = []int{1, 2, 8}

// buildShardedDB drives one full mutation history — bulk build, serial
// adds, self-service edits, removals, a policy swap — against a DB with
// the given shard count and returns it.
func buildShardedDB(t *testing.T, seed uint64, shards int) *DB {
	t.Helper()
	gen := equivGenerator(t, seed)
	pop := population.PrefsOf(gen.Generate(200))
	db, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities(), Shards: shards})
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

// TestShardCountCertifyEquivalence is the shard-count sweep of the ledger
// equivalence suite: the same mutation history at 1, 2 and 8 shards must
// produce byte-identical Certify and CertifyFull output — sharding is a
// storage layout, not an observable behavior. Within each count the
// incremental ledger must also still match the full recompute.
func TestShardCountCertifyEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2011} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			var baseline []byte
			for _, shards := range shardSweepCounts {
				db := buildShardedDB(t, seed, shards)
				if got := db.ShardCount(); got != shards {
					t.Fatalf("ShardCount() = %d, want %d", got, shards)
				}
				requireCertEquiv(t, db, 0.25, fmt.Sprintf("shards=%d", shards))
				cert, err := db.Certify(0.25)
				if err != nil {
					t.Fatal(err)
				}
				out := mustJSON(t, cert)
				if baseline == nil {
					baseline = out // shards=1: the serial oracle
					continue
				}
				if !bytes.Equal(out, baseline) {
					t.Errorf("shards=%d certification diverges from serial\nserial:  %.300s\nsharded: %.300s",
						shards, baseline, out)
				}
			}
		})
	}
}

// TestShardSnapshotByteCompat saves the same database state at every
// sweep shard count and requires every artifact — providers, policy,
// tables, MANIFEST.json — to be byte-identical: the snapshot format has
// no notion of shards, and a snapshot written by a
// sharded server must load anywhere.
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
	for _, shards := range shardSweepCounts {
		db := buildShardedDB(t, 42, shards)
		dir := filepath.Join(t.TempDir(), "snap")
		if err := db.Save(dir); err != nil {
			t.Fatalf("shards=%d: Save: %v", shards, err)
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
			t.Errorf("shards=%d: %d artifacts, serial wrote %d", shards, len(files), len(baseline))
		}
		for name, want := range baseline {
			got, ok := files[name]
			if !ok {
				t.Errorf("shards=%d: artifact %s missing", shards, name)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("shards=%d: artifact %s differs from the serial snapshot", shards, name)
			}
		}
	}
}

// TestShardSnapshotRoundTrip loads a snapshot written by a sharded DB into
// DBs of different shard counts and requires certification to survive the
// trip unchanged.
func TestShardSnapshotRoundTrip(t *testing.T) {
	src := buildShardedDB(t, 7, 8)
	want, err := src.Certify(0.25)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := src.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardSweepCounts {
		db, err := Load(dir, Config{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: Load: %v", shards, err)
		}
		got, err := db.Certify(0.25)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
			t.Errorf("shards=%d: certification changed across save/load", shards)
		}
		requireCertEquiv(t, db, 0.25, fmt.Sprintf("loaded shards=%d", shards))
	}
}

// TestShardConfigValidation pins the Config.Shards contract: 0 defaults to
// one shard per CPU, negatives are rejected.
func TestShardConfigValidation(t *testing.T) {
	gen := equivGenerator(t, 1)
	if _, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities(), Shards: -1}); err == nil {
		t.Error("negative shard count must be rejected")
	}
	db, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities()})
	if err != nil {
		t.Fatal(err)
	}
	if db.ShardCount() < 1 {
		t.Errorf("default ShardCount() = %d", db.ShardCount())
	}
}
