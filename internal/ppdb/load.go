package ppdb

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/relational"
)

// ImportCSV bulk-loads CSV microdata into a registered table through the
// PPDB's provenance path: each row's provider column identifies the data
// provider, who must already be registered (the PPDB refuses data it cannot
// audit). It returns the number of rows stored; on error, rows before the
// failure remain stored.
func (d *DB) ImportCSV(table string, r io.Reader) (int, error) {
	d.mu.RLock()
	t, ok := d.tables[strings.ToLower(table)]
	d.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("ppdb: table %q is not registered", table)
	}
	rows, err := relational.ReadCSV(t.schema, r)
	if err != nil {
		return 0, err
	}
	for i, row := range rows {
		provider, ok := row[t.provIdx].AsText()
		if !ok {
			return i, fmt.Errorf("ppdb: csv row %d has no provider identity", i+1)
		}
		if _, err := d.Insert(table, provider, row); err != nil {
			return i, fmt.Errorf("ppdb: csv row %d: %w", i+1, err)
		}
	}
	return len(rows), nil
}
