package ppdb

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/relational"
)

// fuzzTableDB builds the store the snapshot fuzz target decodes against:
// one table "t" whose rows carry the cells and provenance loads once
// altered or refused — an empty NOT NULL text, padded text, NaN and
// infinite floats, a provider key with a trailing space — and whose ids
// have gaps at the front and the end, so eight ids are taken and five
// rows live.
func fuzzTableDB(t testing.TB) *DB {
	t.Helper()
	hp := privacy.NewHousePolicy("p")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 1})
	db, err := New(Config{Policy: hp, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "id", Type: relational.TypeInt, PrimaryKey: true},
		{Name: "provider", Type: relational.TypeText, NotNull: true},
		{Name: "note", Type: relational.TypeText, NotNull: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ann", "bob ", "cy"} {
		if err := db.RegisterProvider(privacy.NewPrefs(name, 10)); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		provider, note string
		weight         relational.Value
	}{
		{"ann", "first", relational.Float(1)},
		{"bob ", "", relational.Float(math.NaN())},
		{"cy", "  padded  ", relational.Float(math.Inf(1))},
		{"ann", "a,b\r\n\"c\"", relational.Float(math.Inf(-1))},
		{"bob ", "NULL", relational.Null()},
		{"cy", " ", relational.Float(-0.5)},
		{"cy", "x", relational.Float(2)},
		{"ann", "last", relational.Float(3)},
	}
	for i, r := range rows {
		row := relational.Row{relational.Int(int64(i)), relational.Text(r.provider), relational.Text(r.note), r.weight}
		if _, err := db.Insert("t", r.provider, row); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if _, err := db.Advance(time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.mu.Lock()
	for _, id := range []relational.RowID{0, 6, 7} {
		db.tables["t"].delete(id)
	}
	db.mu.Unlock()
	return db
}

// renderArtifacts renders a store's snapshot artifacts.
func renderArtifacts(t testing.TB, db *DB) map[string][]byte {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	arts, _, err := db.renderLocked()
	if err != nil {
		t.Fatal(err)
	}
	return arts
}

// FuzzSnapshotRows decodes arbitrary bytes as one table's row and
// provenance artifacts (tables/t.csv and tables/t.meta.csv) of a format-3
// snapshot whose other artifacts are fixed. No input may panic, and any
// input the loader accepts must save back byte for byte. The seeds are the
// fixture's own artifacts before and after a sweep expires its weights;
// `make fuzz` explores beyond them.
func FuzzSnapshotRows(f *testing.F) {
	db := fuzzTableDB(f)
	base := renderArtifacts(f, db)
	dataRel, metaRel := filepath.Join("tables", "t.csv"), filepath.Join("tables", "t.meta.csv")
	f.Add(base[dataRel], base[metaRel])
	if _, err := db.Advance(48 * time.Hour); err != nil {
		f.Fatal(err)
	}
	if rep, err := db.Sweep(); err != nil || rep.CellsExpired == 0 {
		f.Fatalf("seed sweep = %+v, %v; want expired cells", rep, err)
	}
	swept := renderArtifacts(f, db)
	f.Add(swept[dataRel], swept[metaRel])

	man := manifestJSON{FormatVersion: FormatVersion}
	for _, seed := range []map[string][]byte{base, swept} {
		if _, err := restore(seed, man, Config{Shards: 1}); err != nil {
			f.Fatalf("seed snapshot does not load: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data, meta []byte) {
		arts := make(map[string][]byte, len(base))
		for rel, b := range base {
			arts[rel] = b
		}
		arts[dataRel], arts[metaRel] = data, meta
		got, err := restore(arts, man, Config{Shards: 1})
		if err != nil {
			return
		}
		out := renderArtifacts(t, got)
		if !bytes.Equal(out[dataRel], data) {
			t.Errorf("rows saved back differently:\nloaded %q\nsaved  %q", data, out[dataRel])
		}
		if !bytes.Equal(out[metaRel], meta) {
			t.Errorf("provenance saved back differently:\nloaded %q\nsaved  %q", meta, out[metaRel])
		}
	})
}
