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
// self-service edits, removals, a policy swap that recompiles every row)
// the stored compiled tuple columns must still agree with a fresh compile
// — per provider (identical ProviderReports: conf, dimensions, defaults),
// per certification (byte-identical to a serial AssessProvider recompute),
// and per snapshot (byte-identical artifacts) — at fan-out widths 1, 2
// and 8 (procSweep). The kernel itself is pinned to the paper's row walks
// in internal/core.
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
			for _, procs := range procSweep {
				setProcs(t, procs)
				db := buildSweepDB(t, seed)

				// (a) Row equivalence: every stored provider must carry
				// current compiled columns, and the kernel's report for them
				// must equal a fresh compile's field-for-field.
				db.mu.RLock()
				assessor := db.assessor
				rows := db.table.Rows()
				db.mu.RUnlock()
				var sc core.Scratch
				checked := 0
				for _, r := range rows {
					if !r.Compiled.CurrentFor(assessor) {
						t.Fatalf("procs=%d: provider %s has stale or missing compiled columns", procs, r.Prefs.Provider)
					}
					want := assessor.AssessProvider(r.Prefs)
					got := assessor.AssessCompiled(r.Compiled, &sc)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("procs=%d: kernel report for %s differs\n got: %+v\nwant: %+v",
							procs, r.Prefs.Provider, got, want)
					}
					checked++
				}
				if checked == 0 {
					t.Fatal("mutation history left an empty population")
				}

				// (b) Certification equivalence: the fanned-out Certify
				// must be byte-identical to a serial recompute
				// (AssessPopulation over the sorted population), and to the
				// stateless oracle under a fresh assessor.
				ref := assessor.AssessPopulation(db.Providers())
				cert, err := db.Certify(0.25)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustJSON(t, cert.Report), mustJSON(t, ref)) {
					t.Errorf("procs=%d: columnar certification diverges from the serial reference", procs)
				}
				requireCertEquiv(t, db, 0.25, fmt.Sprintf("columnar procs=%d", procs))

				// (c) Width independence: certification bytes and every
				// snapshot artifact identical at every sweep width.
				out := mustJSON(t, cert)
				dir := filepath.Join(t.TempDir(), "snap")
				if err := db.Save(dir); err != nil {
					t.Fatalf("procs=%d: Save: %v", procs, err)
				}
				files := readDir(t, dir)
				if baseCert == nil {
					baseCert, baseSnap = out, files
					continue
				}
				if !bytes.Equal(out, baseCert) {
					t.Errorf("procs=%d: certification bytes differ from procs=%d", procs, procSweep[0])
				}
				if len(files) != len(baseSnap) {
					t.Errorf("procs=%d: %d snapshot artifacts, want %d", procs, len(files), len(baseSnap))
				}
				for name, want := range baseSnap {
					if got, ok := files[name]; !ok || !bytes.Equal(got, want) {
						t.Errorf("procs=%d: snapshot artifact %s differs from procs=%d", procs, name, procSweep[0])
					}
				}
			}
		})
	}
}
