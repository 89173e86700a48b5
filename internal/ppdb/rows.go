package ppdb

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/relational"
)

// rowTable is one registered table and the only copy of its rows
// (DESIGN.md §15). Row id i lives in slots[i] with its provenance: the
// contributing provider's key, the insert instant and the cells sweeps
// have expired. A delete leaves a tombstone, so ids are never reused. The
// table keeps the primary-key index and each provider's posting list, the
// ascending ids of the rows they own. It has no lock of its own: d.mu
// guards it, shared for reads and exclusive for every mutation.
type rowTable struct {
	name    string
	schema  *relational.Schema
	provIdx int // schema index of the provider-key column

	slots []rowSlot
	live  int
	pk    map[string]relational.RowID   // primary-key Value.Key → id; nil without a primary key
	owned map[string][]relational.RowID // provider key → ascending ids of their live rows (possibly none)
}

// rowSlot is one row id's slot: the row and its provenance. A nil row is
// a tombstone.
type rowSlot struct {
	row      relational.Row
	provider string
	inserted time.Time
	expired  []bool // per schema column; nil until a sweep expires a cell
}

// newRowTable creates an empty table whose rows each belong to the
// provider named in providerCol.
func newRowTable(name string, schema *relational.Schema, providerCol string) (*rowTable, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return nil, fmt.Errorf("ppdb: table needs a name")
	}
	if schema == nil {
		return nil, fmt.Errorf("ppdb: table %q needs a schema", name)
	}
	pi, ok := schema.ColumnIndex(providerCol)
	if !ok {
		return nil, fmt.Errorf("ppdb: table %q has no provider column %q", name, providerCol)
	}
	t := &rowTable{name: name, schema: schema, provIdx: pi, owned: make(map[string][]relational.RowID)}
	if schema.PrimaryKey() >= 0 {
		t.pk = make(map[string]relational.RowID)
	}
	return t, nil
}

// nextID is the id the next inserted row gets.
func (t *rowTable) nextID() relational.RowID { return relational.RowID(len(t.slots)) }

// get returns the live row with the given id.
func (t *rowTable) get(id relational.RowID) (*rowSlot, bool) {
	if id < 0 || id >= t.nextID() || t.slots[id].row == nil {
		return nil, false
	}
	return &t.slots[id], true
}

// add validates s.row against the schema and stores it under id, which
// must not be below nextID; any ids skipped on the way stay tombstones
// (a snapshot restores deleted rows that way). Primary-key duplicates are
// rejected.
func (t *rowTable) add(id relational.RowID, s rowSlot) error {
	if id < t.nextID() {
		return fmt.Errorf("ppdb: %s: row id %d is below the next free id %d", t.name, id, t.nextID())
	}
	row, err := t.schema.CheckRow(s.row)
	if err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	if pk := t.schema.PrimaryKey(); pk >= 0 {
		k := row[pk].Key()
		if _, dup := t.pk[k]; dup {
			return fmt.Errorf("ppdb: %s: duplicate primary key %s", t.name, row[pk])
		}
		t.pk[k] = id
	}
	s.row = row
	t.padTo(id)
	t.slots = append(t.slots, s)
	t.owned[s.provider] = append(t.owned[s.provider], id)
	t.live++
	return nil
}

// padTo extends the slots with tombstones up to, not including, id.
func (t *rowTable) padTo(id relational.RowID) {
	if gap := id - t.nextID(); gap > 0 {
		t.slots = append(t.slots, make([]rowSlot, gap)...)
	}
}

// update replaces a live row's cells after validation, keeping the
// primary-key index current. Provenance is unchanged.
func (t *rowTable) update(id relational.RowID, row relational.Row) error {
	s, ok := t.get(id)
	if !ok {
		return fmt.Errorf("ppdb: %s: row %d does not exist", t.name, id)
	}
	checked, err := t.schema.CheckRow(row)
	if err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	if pk := t.schema.PrimaryKey(); pk >= 0 {
		oldK, newK := s.row[pk].Key(), checked[pk].Key()
		if oldK != newK {
			if _, dup := t.pk[newK]; dup {
				return fmt.Errorf("ppdb: %s: duplicate primary key %s", t.name, checked[pk])
			}
			delete(t.pk, oldK)
			t.pk[newK] = id
		}
	}
	s.row = checked
	return nil
}

// delete tombstones a live row.
func (t *rowTable) delete(id relational.RowID) {
	s, ok := t.get(id)
	if !ok {
		return
	}
	ids := t.owned[s.provider]
	if i, found := slices.BinarySearch(ids, id); found {
		t.owned[s.provider] = slices.Delete(ids, i, i+1)
	}
	t.bury(id)
}

// removeProvider tombstones every row the provider owns and returns how
// many there were.
func (t *rowTable) removeProvider(key string) int {
	ids := t.owned[key]
	for _, id := range ids {
		t.bury(id)
	}
	delete(t.owned, key)
	return len(ids)
}

// bury turns a live slot into a tombstone, dropping its primary-key entry;
// the caller maintains the posting list.
func (t *rowTable) bury(id relational.RowID) {
	if pk := t.schema.PrimaryKey(); pk >= 0 {
		delete(t.pk, t.slots[id].row[pk].Key())
	}
	t.slots[id] = rowSlot{}
	t.live--
}

// columnNames lists the schema's column names in order.
func (t *rowTable) columnNames() []string {
	cols := make([]string, t.schema.Len())
	for i := range cols {
		cols[i] = t.schema.Column(i).Name
	}
	return cols
}

// Schema implements query.Rows.
func (t *rowTable) Schema() *relational.Schema { return t.schema }

// ProviderCol implements query.Rows.
func (t *rowTable) ProviderCol() string { return t.schema.Column(t.provIdx).Name }

// Indexed implements query.Rows: only the primary key. The posting lists
// are not offered to the planner — a provider-column probe would change
// the plan, and with it the stats and EXPLAIN of `WHERE provider = …`.
// A table without a primary key has no index (PrimaryKey is then -1).
func (t *rowTable) Indexed(col int) bool { return col >= 0 && col == t.schema.PrimaryKey() }

// Scan implements query.Rows.
func (t *rowTable) Scan(visit query.Visit) {
	for i := range t.slots {
		if s := &t.slots[i]; s.row != nil {
			visit(relational.RowID(i), s.row, s.provider, s.inserted)
		}
	}
}

// Probe implements query.Rows over the primary-key index.
func (t *rowTable) Probe(col int, v relational.Value, visit query.Visit) {
	if !t.Indexed(col) {
		return
	}
	if id, ok := t.pk[v.Key()]; ok {
		s := &t.slots[id]
		visit(id, s.row, s.provider, s.inserted)
	}
}
