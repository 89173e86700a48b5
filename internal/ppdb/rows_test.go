package ppdb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/relational"
)

// personTable is an empty row table keyed by id, each row owned by the
// provider named in its name column.
func personTable(t *testing.T) *rowTable {
	t.Helper()
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "id", Type: relational.TypeInt, PrimaryKey: true},
		{Name: "name", Type: relational.TypeText, NotNull: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := newRowTable("People", schema, "Name")
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// person inserts (id, name, NULL) owned by name at the next free id.
func person(t *testing.T, tab *rowTable, id int64, name string) relational.RowID {
	t.Helper()
	rid := tab.nextID()
	if err := tab.add(rid, rowSlot{row: relational.Row{relational.Int(id), relational.Text(name), relational.Null()}, provider: name}); err != nil {
		t.Fatal(err)
	}
	return rid
}

// visited collects what a Scan or Probe hands the executor.
type visited struct {
	ids       []relational.RowID
	providers []string
	rows      []relational.Row
}

func (v *visited) visit(id relational.RowID, row relational.Row, provider string, _ time.Time) {
	v.ids = append(v.ids, id)
	v.providers = append(v.providers, provider)
	v.rows = append(v.rows, row)
}

func TestTableInsertGet(t *testing.T) {
	tab := personTable(t)
	if tab.name != "people" || tab.ProviderCol() != "name" || tab.provIdx != 1 {
		t.Fatalf("table = %q, provider column %q at %d", tab.name, tab.ProviderCol(), tab.provIdx)
	}
	at := time.Date(2011, 2, 3, 4, 5, 6, 0, time.UTC)
	// FLOAT widens an integer, as the schema's CheckRow does.
	if err := tab.add(0, rowSlot{row: relational.Row{relational.Int(1), relational.Text("alice"), relational.Int(60)}, provider: "alice", inserted: at}); err != nil {
		t.Fatal(err)
	}
	s, ok := tab.get(0)
	if !ok || s.row[1].Display() != "alice" || s.provider != "alice" || !s.inserted.Equal(at) {
		t.Fatalf("get = %+v, %v", s, ok)
	}
	if s.row[2].Kind() != relational.KindFloat {
		t.Errorf("weight kind = %s, want float", s.row[2].Kind())
	}
	if tab.live != 1 || tab.nextID() != 1 {
		t.Errorf("live = %d, next id = %d", tab.live, tab.nextID())
	}
	if _, ok := tab.get(1); ok {
		t.Error("get past the last id must miss")
	}
	if _, ok := tab.get(-1); ok {
		t.Error("get of a negative id must miss")
	}
	// A restore may skip ids; the gap stays tombstones.
	if err := tab.add(4, rowSlot{row: relational.Row{relational.Int(2), relational.Text("bob"), relational.Null()}, provider: "bob"}); err != nil {
		t.Fatal(err)
	}
	if tab.nextID() != 5 || tab.live != 2 {
		t.Errorf("after a gap: next id = %d, live = %d", tab.nextID(), tab.live)
	}
	for _, id := range []relational.RowID{1, 2, 3} {
		if _, ok := tab.get(id); ok {
			t.Errorf("skipped id %d is live", id)
		}
	}
	if err := tab.add(3, rowSlot{row: relational.Row{relational.Int(3), relational.Text("cy"), relational.Null()}, provider: "cy"}); err == nil {
		t.Error("adding below the next free id must fail")
	}
	if err := tab.add(5, rowSlot{row: relational.Row{relational.Int(3)}, provider: "cy"}); err == nil {
		t.Error("a row of the wrong arity must fail")
	}
}

func TestPrimaryKeyConstraint(t *testing.T) {
	tab := personTable(t)
	person(t, tab, 1, "a")
	if err := tab.add(tab.nextID(), rowSlot{row: relational.Row{relational.Int(1), relational.Text("b"), relational.Null()}, provider: "b"}); err == nil {
		t.Error("duplicate pk should fail")
	}
	if tab.nextID() != 1 || tab.live != 1 || len(tab.owned["b"]) != 0 {
		t.Errorf("a refused row left state behind: next id %d, live %d, owned %v", tab.nextID(), tab.live, tab.owned)
	}
	var v visited
	tab.Probe(0, relational.Int(1), v.visit)
	if len(v.ids) != 1 || v.rows[0][1].Display() != "a" {
		t.Fatalf("pk probe = %+v", v)
	}
	v = visited{}
	tab.Probe(0, relational.Int(99), v.visit)
	if len(v.ids) != 0 {
		t.Error("missing pk should not resolve")
	}

	// The store path refuses the duplicate too, from the Go API and from
	// a CSV load.
	db := clinicDB(t)
	if _, err := db.Insert("patients", "alice", relational.Row{relational.Text("alice"), relational.Int(1), relational.Float(1)}); err == nil {
		t.Error("duplicate pk insert should fail")
	}
	if n, err := db.ImportCSV("patients", strings.NewReader("patient,age,weight\nbob,1,2\n")); err == nil {
		t.Errorf("duplicate pk CSV row loaded (%d rows)", n)
	}
}

func TestScanOrderAndDelete(t *testing.T) {
	tab := personTable(t)
	var ids []relational.RowID
	for i := 0; i < 5; i++ {
		ids = append(ids, person(t, tab, int64(i), fmt.Sprintf("p%d", i%2)))
	}
	tab.delete(ids[2])
	tab.delete(ids[2]) // a second delete is a no-op
	if tab.live != 4 {
		t.Fatalf("live = %d", tab.live)
	}
	var v visited
	tab.Scan(v.visit)
	want := []relational.RowID{0, 1, 3, 4}
	if fmt.Sprint(v.ids) != fmt.Sprint(want) || fmt.Sprint(v.providers) != "[p0 p1 p1 p0]" {
		t.Fatalf("scan = %v %v, want %v", v.ids, v.providers, want)
	}
	if fmt.Sprint(tab.owned["p0"]) != "[0 4]" || fmt.Sprint(tab.owned["p1"]) != "[1 3]" {
		t.Errorf("posting lists = %v", tab.owned)
	}
	// The deleted row's primary key is free again; its id is never reused.
	if got := person(t, tab, 2, "p0"); got != 5 {
		t.Errorf("next insert got id %d, want 5", got)
	}
	// Deleting the last row leaves its id taken.
	tab.delete(5)
	if tab.nextID() != 6 {
		t.Errorf("next id after deleting the last row = %d, want 6", tab.nextID())
	}
	if n := tab.removeProvider("p1"); n != 2 || tab.live != 2 {
		t.Errorf("removeProvider = %d, live %d", n, tab.live)
	}
	if _, owned := tab.owned["p1"]; owned {
		t.Error("posting list survives its provider")
	}
	v = visited{}
	tab.Scan(v.visit)
	if fmt.Sprint(v.ids) != "[0 4]" {
		t.Errorf("scan after removal = %v", v.ids)
	}
}

func TestUpdateMaintainsPKIndex(t *testing.T) {
	tab := personTable(t)
	id := person(t, tab, 1, "a")
	person(t, tab, 2, "b")

	// Move pk 1 → 3.
	if err := tab.update(id, relational.Row{relational.Int(3), relational.Text("a"), relational.Null()}); err != nil {
		t.Fatalf("update: %v", err)
	}
	var v visited
	tab.Probe(0, relational.Int(1), v.visit)
	if len(v.ids) != 0 {
		t.Error("old pk should be gone")
	}
	tab.Probe(0, relational.Int(3), v.visit)
	if fmt.Sprint(v.ids) != fmt.Sprint([]relational.RowID{id}) {
		t.Errorf("new pk resolves to %v", v.ids)
	}
	// Collision with existing pk 2.
	if err := tab.update(id, relational.Row{relational.Int(2), relational.Text("a"), relational.Null()}); err == nil {
		t.Error("pk collision on update should fail")
	}
	// Update of a missing row.
	if err := tab.update(999, relational.Row{relational.Int(9), relational.Text("x"), relational.Null()}); err == nil {
		t.Error("updating missing row should fail")
	}
	// Invalid row.
	if err := tab.update(id, relational.Row{relational.Int(3), relational.Null(), relational.Null()}); err == nil {
		t.Error("NOT NULL violation on update should fail")
	}
	// A deleted row's pk is free again.
	tab.delete(id)
	person(t, tab, 3, "c")
}

// scanEqual is the answer a probe must match: the rows a full scan
// filtered by SQL equality on column col keeps.
func scanEqual(tab *rowTable, col int, v relational.Value) visited {
	var out visited
	tab.Scan(func(id relational.RowID, row relational.Row, provider string, at time.Time) {
		if relational.Equal(row[col], v) {
			out.visit(id, row, provider, at)
		}
	})
	return out
}

// TestIndexAssistedEquality pins what the planner's index shortcut relies
// on: a primary-key probe answers exactly the rows a scan filtered by SQL
// equality would, with their provenance.
func TestIndexAssistedEquality(t *testing.T) {
	tab := personTable(t)
	for i := int64(0); i < 5; i++ {
		person(t, tab, i*10, fmt.Sprintf("p%d", i))
	}
	for _, probe := range []relational.Value{relational.Int(0), relational.Int(20), relational.Int(40), relational.Int(25)} {
		var index visited
		tab.Probe(0, probe, index.visit)
		if scan := scanEqual(tab, 0, probe); fmt.Sprint(scan) != fmt.Sprint(index) {
			t.Errorf("probe %s = %+v, scan = %+v", probe, index, scan)
		}
	}
	var v visited
	tab.Probe(0, relational.Int(30), v.visit)
	if fmt.Sprint(v.ids) != "[3]" || v.providers[0] != "p3" || v.rows[0][1].Display() != "p3" {
		t.Errorf("pk 30 probe = %+v", v)
	}
	// A deleted row leaves the index with it.
	tab.delete(3)
	v = visited{}
	tab.Probe(0, relational.Int(30), v.visit)
	if len(v.ids) != 0 {
		t.Errorf("probe found the deleted row: %v", v.ids)
	}
}

// TestIndexedOnlyPrimaryKey pins which columns the planner may probe: the
// primary key and nothing else — not the provider column, whose posting
// lists stay internal, and not a column index outside the schema. A probe
// of any other column visits nothing, so a planner that asked anyway would
// see an empty answer rather than a wrong one.
func TestIndexedOnlyPrimaryKey(t *testing.T) {
	tab := personTable(t)
	person(t, tab, 1, "p")
	for col, want := range map[int]bool{-1: false, 0: true, 1: false, 2: false, 3: false} {
		if got := tab.Indexed(col); got != want {
			t.Errorf("Indexed(%d) = %v, want %v", col, got, want)
		}
	}
	var v visited
	tab.Probe(1, relational.Text("p"), v.visit)
	if len(v.ids) != 0 {
		t.Errorf("probe of the unindexed provider column = %v", v.ids)
	}
	// A table without a primary key has no index to probe.
	schema, _ := relational.NewSchema([]relational.Column{{Name: "p", Type: relational.TypeText}})
	bare, err := newRowTable("bare", schema, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.add(0, rowSlot{row: relational.Row{relational.Text("p")}, provider: "p"}); err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{-1, 0} {
		if bare.Indexed(col) {
			t.Errorf("a table without a primary key reports column %d indexed", col)
		}
		v = visited{}
		bare.Probe(col, relational.Text("p"), v.visit)
		if len(v.ids) != 0 {
			t.Errorf("probe of column %d on a table without an index = %v", col, v.ids)
		}
	}
}

// TestProbeKindAware pins that the primary-key index matches with SQL
// equality across kinds, before and after an update moves a key: a FLOAT
// probe finds the equal INT key, a TEXT probe never matches an INT key or
// the other way round, and a NULL probe matches nothing.
func TestProbeKindAware(t *testing.T) {
	tab := personTable(t)
	for i := int64(0); i < 5; i++ {
		person(t, tab, i*10, "p")
	}
	check := func(tab *rowTable, probe relational.Value, want string) {
		t.Helper()
		var index visited
		tab.Probe(0, probe, index.visit)
		scan := scanEqual(tab, 0, probe)
		if fmt.Sprint(index.ids) != want || fmt.Sprint(scan.ids) != want {
			t.Errorf("probe %s (%s) = %v, scan = %v, want %s", probe, probe.Kind(), index.ids, scan.ids, want)
		}
	}
	check(tab, relational.Float(20), "[2]")
	check(tab, relational.Text("20"), "[]")
	check(tab, relational.Null(), "[]")

	// Moving pk 20 → 21 moves its index entry, under every spelling.
	if err := tab.update(2, relational.Row{relational.Int(21), relational.Text("p"), relational.Null()}); err != nil {
		t.Fatal(err)
	}
	check(tab, relational.Int(20), "[]")
	check(tab, relational.Float(20), "[]")
	check(tab, relational.Int(21), "[2]")
	check(tab, relational.Float(21), "[2]")
	check(tab, relational.Text("21"), "[]")

	// On a TEXT key, only text matches.
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "code", Type: relational.TypeText, PrimaryKey: true},
		{Name: "p", Type: relational.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	codes, err := newRowTable("codes", schema, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := codes.add(0, rowSlot{row: relational.Row{relational.Text("7"), relational.Text("p")}, provider: "p"}); err != nil {
		t.Fatal(err)
	}
	check(codes, relational.Text("7"), "[0]")
	check(codes, relational.Int(7), "[]")
	check(codes, relational.Float(7), "[]")
}

// TestNewRowTableErrors pins what a table refuses to be built from; the
// same refusals reach callers through RegisterTable.
func TestNewRowTableErrors(t *testing.T) {
	schema, err := relational.NewSchema([]relational.Column{{Name: "p", Type: relational.TypeText}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, table, provider string
		schema                *relational.Schema
	}{
		{"empty name", "", "p", schema},
		{"blank name", "  ", "p", schema},
		{"nil schema", "x", "p", nil},
		{"no provider column", "x", "nope", schema},
	} {
		if tab, err := newRowTable(c.table, c.schema, c.provider); err == nil {
			t.Errorf("%s: built %+v", c.name, tab)
		}
	}
	tab, err := newRowTable(" Notes ", schema, "P")
	if err != nil {
		t.Fatal(err)
	}
	if tab.name != "notes" || tab.ProviderCol() != "p" || tab.pk != nil {
		t.Errorf("table = %q, provider column %q, pk index %v", tab.name, tab.ProviderCol(), tab.pk)
	}
}

// TestProviderViewOrder pins the right-of-access order: (table name, row
// id), read off the posting lists, however the tables were registered and
// the rows interleaved. Eight rows in each of three tables leave no room
// for map iteration to pass by chance.
func TestProviderViewOrder(t *testing.T) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := New(Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, NotNull: true},
		{Name: "note", Type: relational.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	tables := []string{"gamma", "alpha", "beta"}
	for _, name := range tables {
		if err := db.RegisterTable(name, schema, "provider"); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"ann", "other"} {
		if err := db.RegisterProvider(privacy.NewPrefs(p, 1)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]relational.RowID{}
	for i := 0; i < 8; i++ {
		for _, name := range tables {
			if _, err := db.Insert(name, "other", relational.Row{relational.Text("other"), relational.Int(-1)}); err != nil {
				t.Fatal(err)
			}
			id, err := db.Insert(name, "ann", relational.Row{relational.Text("ann"), relational.Int(int64(i))})
			if err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], id)
		}
	}
	rows, err := db.ProviderView("ANN")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("%d rows, want 24", len(rows))
	}
	for i, r := range rows {
		name := []string{"alpha", "beta", "gamma"}[i/8]
		if r.Table != name || r.RowID != want[name][i%8] {
			t.Fatalf("row %d = %s/%d, want %s/%d", i, r.Table, r.RowID, name, want[name][i%8])
		}
		if n, _ := r.Values[1].AsInt(); n != int64(i%8) {
			t.Fatalf("row %d note = %v, want %d", i, r.Values[1], i%8)
		}
	}
}
