package ppdb

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/privacy"
	"repro/internal/relational"
)

// TestProviderKeyKeepsInvalidBytes: two names that differ only in a byte
// that is not UTF-8 are two providers at every provider-key site —
// registration, lookup, listing, row ownership, preference edits and a
// removal replayed from the WAL.
func TestProviderKeyKeepsInvalidBytes(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	db, err := New(walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(walTestOpts(walDir)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProvider(privacy.NewPrefs("bo\xffb", 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProvider(privacy.NewPrefs("bo\xfeb", 7)); err != nil {
		t.Fatal(err)
	}
	if n := db.NumProviders(); n != 2 {
		t.Fatalf("%d providers registered, want 2", n)
	}
	for name, want := range map[string]float64{"bo\xffb": 1, "BO\xffB": 1, "bo\xfeb": 7} {
		if p, ok := db.Provider(name); !ok || p.Threshold != want {
			t.Errorf("Provider(%q) = %v, %v; want threshold %g", name, p, ok, want)
		}
	}
	if total, keys := db.ProvidersPage("", 0, 10); total != 2 || !reflect.DeepEqual(keys, []string{"bo\xfeb", "bo\xffb"}) {
		t.Errorf("ProvidersPage lists %d: %q; want the two keys", total, keys)
	}
	if total, keys := db.ProvidersPage("BO\xff", 0, 10); total != 1 || !reflect.DeepEqual(keys, []string{"bo\xffb"}) {
		t.Errorf("prefix \"BO\\xff\" lists %d: %q; want bo\\xffb", total, keys)
	}

	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", "bo\xffb", relational.Row{relational.Text("bo\xfeb"), relational.Float(1)}); err == nil {
		t.Error("a row whose provider column is bo\\xfeb was stored for bo\\xffb")
	}
	id, err := db.Insert("t", "bo\xffb", relational.Row{relational.Text("BO\xffB"), relational.Float(1)})
	if err != nil {
		t.Fatalf("a row naming its own provider in another case: %v", err)
	}
	if err := db.UpdateOwnRow("bo\xffb", "t", id, relational.Row{relational.Text("bo\xfeb"), relational.Float(2)}); err == nil {
		t.Error("UpdateOwnRow reassigned a row from bo\\xffb to bo\\xfeb")
	}
	if err := db.UpdatePreferences("bo\xffb", privacy.NewPrefs("bo\xfeb", 3)); err == nil {
		t.Error("UpdatePreferences took bo\\xfeb's preferences for bo\\xffb")
	}

	if _, err := db.RemoveProvider("bo\xffb"); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, err := New(walEquivConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.AttachWAL(walTestOpts(walDir)); err != nil {
		t.Fatal(err)
	}
	defer db2.CloseWAL()
	if _, ok := db2.Provider("bo\xffb"); ok {
		t.Error("the removal of bo\\xffb did not replay")
	}
	if p, ok := db2.Provider("bo\xfeb"); !ok || p.Threshold != 7 {
		t.Errorf("after replay Provider(bo\\xfeb) = %v, %v; want threshold 7", p, ok)
	}
}

// TestProvidersPageBytesFlat checks that one page of the provider listing
// costs the same bytes whatever the population: the prefix's run of the
// sorted keys is found by binary search and only the page is copied.
func TestProvidersPageBytesFlat(t *testing.T) {
	build := func(n int) *DB {
		db, err := New(Config{Policy: equivPolicy("v1", 2)})
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]*privacy.Prefs, n)
		for i := range ps {
			ps[i] = privacy.NewPrefs(fmt.Sprintf("p-%06d", i), 1)
		}
		if err := db.RegisterProviders(ps); err != nil {
			t.Fatal(err)
		}
		return db
	}
	small, large := build(1000), build(100000)
	const runs = 100
	for _, prefix := range []string{"", "p-00", "zz"} {
		bytes := func(db *DB) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				total, page := db.ProvidersPage(prefix, 500, 10)
				if prefix == "zz" && (total != 0 || len(page) != 0) || prefix != "zz" && len(page) != 10 {
					t.Fatalf("prefix %q: total %d, page of %d", prefix, total, len(page))
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		if s, l := bytes(small), bytes(large); l > s+64 {
			t.Errorf("prefix %q: a 10-key page allocates %d B at 1k providers and %d B at 100k", prefix, s, l)
		}
	}
}
