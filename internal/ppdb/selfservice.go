package ppdb

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// Provider self-service: Sec. 1 notes that legislation requires "maintaining
// the ability of the data provider to access and update the information
// solicited from them", and Sec. 2 that transparency should let "data
// providers … continuously monitor the state of their privacy". These
// methods give each provider unmediated access to their own rows, the
// ability to update them, and a personal violation audit against the
// current policy.

// OwnRow is one stored row belonging to a provider.
type OwnRow struct {
	Table   string
	RowID   relational.RowID
	Columns []string
	Values  []relational.Value
}

// ProviderView returns every row the provider has contributed, across all
// registered tables, at full granularity — a provider's right of access is
// not subject to the house policy (they are reading their own data). Rows
// come in (table name, row id) order, read off each table's posting list
// for the provider.
func (d *DB) ProviderView(provider string) ([]OwnRow, error) {
	key := strings.ToLower(provider)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, ok := d.table.Get(key); !ok {
		return nil, fmt.Errorf("ppdb: provider %q is not registered", provider)
	}
	var out []OwnRow
	for _, name := range d.tableNamesLocked() {
		t := d.tables[name]
		ids := t.owned[key]
		if len(ids) == 0 {
			continue
		}
		cols := t.columnNames()
		for _, id := range ids {
			out = append(out, OwnRow{Table: name, RowID: id, Columns: cols, Values: slices.Clone(t.slots[id].row)})
		}
	}
	return out, nil
}

// UpdateOwnRow lets a provider correct one of their rows. The row must
// belong to the provider; the provider-identity column cannot be changed.
func (d *DB) UpdateOwnRow(provider, table string, id relational.RowID, row relational.Row) error {
	key := strings.ToLower(provider)
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("ppdb: table %q is not registered", table)
	}
	s, ok := t.get(id)
	if !ok {
		return fmt.Errorf("ppdb: row %d does not exist in %q", id, table)
	}
	if s.provider != key {
		return fmt.Errorf("ppdb: row %d in %q does not belong to %q", id, table, provider)
	}
	if ownsRow(t, row, provider) != nil {
		return fmt.Errorf("ppdb: cannot reassign row ownership")
	}
	if err := t.update(id, row); err != nil {
		return err
	}
	d.mutSeq.Add(1)
	return nil
}

// SelfAudit returns the provider's personal violation report against the
// current policy — w_i, Violation_i, default_i and every conflicting tuple
// pair — the "continuously monitor the state of their privacy" capability.
// The memoized row is returned in O(1).
func (d *DB) SelfAudit(provider string) (core.ProviderReport, error) {
	d.mu.RLock()
	r, ok := d.table.Get(strings.ToLower(provider))
	d.mu.RUnlock()
	if !ok {
		return core.ProviderReport{}, fmt.Errorf("ppdb: provider %q is not registered", provider)
	}
	return r.Report, nil
}

// UpdatePreferences lets a provider revise their preference tuples (and
// thereby their violation state) — registration is idempotent, this is the
// explicit self-service spelling. The new preferences must carry the same
// provider identity. The registration check and the write share one d.mu
// critical section, so an update never re-registers a provider that a
// concurrent RemoveProvider deleted.
func (d *DB) UpdatePreferences(provider string, prefs *privacy.Prefs) error {
	if prefs == nil {
		return fmt.Errorf("ppdb: nil preferences")
	}
	if !strings.EqualFold(provider, prefs.Provider) {
		return fmt.Errorf("ppdb: preferences are for %q, not %q", prefs.Provider, provider)
	}
	if err := prefs.Validate(d.scales); err != nil {
		return err
	}
	ps := []*privacy.Prefs{prefs}
	rec, err := d.walEncode(walRecProviders, ps)
	if err != nil {
		return err
	}
	d.mu.Lock()
	if _, ok := d.table.Get(strings.ToLower(provider)); !ok {
		d.mu.Unlock()
		return fmt.Errorf("ppdb: provider %q is not registered", provider)
	}
	lsn, err := d.registerLocked(ps, rec)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.walWait(lsn)
}
