package ppdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestColumnarKernelMatchesReferenceAcrossShards is the randomized-
// population property test for the columnar certify core (DESIGN.md §13):
// after a full mutation history (bulk build, point registrations,
// self-service edits, removals, a policy swap that recompiles every shard)
// the compiled tuple columns must still agree with the row-oriented
// reference — per provider (identical ProviderReports: conf, dimensions,
// defaults), per certification (byte-identical to a serial AssessProvider
// recompute), and per snapshot (byte-identical artifacts) — at 1, 2 and 8
// shards.
func TestColumnarKernelMatchesReferenceAcrossShards(t *testing.T) {
	readDir := func(t *testing.T, dir string) map[string][]byte {
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

	for _, seed := range []uint64{3, 77} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			var baseCert []byte
			var baseSnap map[string][]byte
			for _, shards := range shardSweepCounts {
				db := buildShardedDB(t, seed, shards)

				// (a) Row equivalence: every stored provider must carry
				// current compiled columns (the sweep's policy is maskable),
				// and the kernel's report for them must equal the reference
				// walk field-for-field.
				db.mu.RLock()
				assessor := db.assessor
				keys, rows := db.snapshotShared()
				db.mu.RUnlock()
				var sc core.Scratch
				checked := 0
				for i := range rows {
					for j, r := range rows[i] {
						if !r.Compiled.CurrentFor(assessor) {
							t.Fatalf("shards=%d: provider %s has stale or missing compiled columns", shards, keys[i][j])
						}
						want := assessor.AssessProvider(r.Prefs)
						got := assessor.AssessCompiled(r.Compiled, &sc)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("shards=%d: kernel report for %s differs\n got: %+v\nwant: %+v",
								shards, keys[i][j], got, want)
						}
						checked++
					}
				}
				if checked == 0 {
					t.Fatal("mutation history left an empty population")
				}

				// (b) Certification equivalence: the columnar CertifyFull
				// must be byte-identical to the serial reference oracle
				// (AssessProvider over the sorted population), and the
				// incremental ledger path must match the full recompute.
				ref := assessor.AssessPopulation(db.Providers())
				cert, err := db.CertifyFull(0.25)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustJSON(t, cert.Report), mustJSON(t, ref)) {
					t.Errorf("shards=%d: columnar certification diverges from the serial reference", shards)
				}
				requireCertEquiv(t, db, 0.25, fmt.Sprintf("columnar shards=%d", shards))

				// (c) Shard-count independence: certification bytes and
				// every snapshot artifact identical at 1, 2 and 8 shards.
				out := mustJSON(t, cert)
				dir := filepath.Join(t.TempDir(), "snap")
				if err := db.Save(dir); err != nil {
					t.Fatalf("shards=%d: Save: %v", shards, err)
				}
				files := readDir(t, dir)
				if baseCert == nil {
					baseCert, baseSnap = out, files
					continue
				}
				if !bytes.Equal(out, baseCert) {
					t.Errorf("shards=%d: certification bytes differ from shards=%d", shards, shardSweepCounts[0])
				}
				if len(files) != len(baseSnap) {
					t.Errorf("shards=%d: %d snapshot artifacts, want %d", shards, len(files), len(baseSnap))
				}
				for name, want := range baseSnap {
					if got, ok := files[name]; !ok || !bytes.Equal(got, want) {
						t.Errorf("shards=%d: snapshot artifact %s differs from shards=%d", shards, name, shardSweepCounts[0])
					}
				}
			}
		})
	}
}
