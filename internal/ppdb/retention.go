package ppdb

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// RetentionSchedule maps retention levels to storage durations. The top
// level of the scale means "keep indefinitely" and needs no entry; level 0
// means "never store" (cells are expired by the first sweep).
type RetentionSchedule map[privacy.Level]time.Duration

// DefaultRetentionSchedule interprets the default retention scale
// none < transient < week < month < year < indefinite.
func DefaultRetentionSchedule(scale *privacy.Scale) RetentionSchedule {
	rs := RetentionSchedule{}
	for l := privacy.Level(0); l < scale.Max(); l++ {
		switch scale.Name(l) {
		case "none":
			rs[l] = 0
		case "transient":
			rs[l] = 24 * time.Hour
		case "week":
			rs[l] = 7 * 24 * time.Hour
		case "month":
			rs[l] = 30 * 24 * time.Hour
		case "year":
			rs[l] = 365 * 24 * time.Hour
		default:
			// Unknown intermediate levels get a progression of months.
			rs[l] = time.Duration(l) * 30 * 24 * time.Hour
		}
	}
	return rs
}

// Validate checks the schedule covers every non-top level and is monotone.
func (rs RetentionSchedule) Validate(scale *privacy.Scale) error {
	prev := time.Duration(-1)
	for l := privacy.Level(0); l < scale.Max(); l++ {
		d, ok := rs[l]
		if !ok {
			return fmt.Errorf("ppdb: retention schedule missing level %d (%s)", l, scale.Name(l))
		}
		if d < 0 {
			return fmt.Errorf("ppdb: retention for %s is negative", scale.Name(l))
		}
		if d < prev {
			return fmt.Errorf("ppdb: retention schedule not monotone at %s", scale.Name(l))
		}
		prev = d
	}
	return nil
}

// Expired reports whether a cell inserted at t with retention level l has
// expired by now. The scale's top level never expires.
func (rs RetentionSchedule) Expired(scale *privacy.Scale, l privacy.Level, inserted, now time.Time) bool {
	if l >= scale.Max() {
		return false
	}
	d, ok := rs[l]
	if !ok {
		return false
	}
	return now.Sub(inserted) > d
}

// SweepReport summarizes one retention sweep.
type SweepReport struct {
	At           time.Time
	CellsExpired int
	RowsDeleted  int
}

// rowDecision is the sweep verdict for one row, computed read-only in the
// parallel decision phase and applied serially afterwards: the columns
// whose cells expire, and whether the whole row goes.
type rowDecision struct {
	expire []int
	del    bool
}

// Sweep enforces retention: for every stored row, each attribute cell whose
// policy retention (the maximum over the attribute's policy tuples — data
// is kept while any purpose still needs it) has elapsed is nulled out (or
// suppressed when the column is NOT NULL); rows whose policy-covered cells
// have all expired are deleted. Providers' identity columns expire last,
// with their row.
//
// The sweep runs in two phases (DESIGN.md §11): a read-only decision phase
// that classifies every row in parallel (one fan-out per table, width =
// shard count — decisions depend only on provenance, policy and the clock,
// so rows are independent), then a serial apply phase that mutates rows in
// ascending row-ID order, keeping the mutation sequence deterministic.
// Tables are visited in sorted name order so the full mutation sequence —
// not just the per-table one — is identical on every run.
//
//lint:deterministic the sweep mutation sequence must be reproducible for audit replay
func (d *DB) Sweep() (SweepReport, error) {
	d.mu.Lock()
	// The WAL record carries the sweep's clock reading; replay pins the
	// clock to it before re-sweeping, so the expiry decisions are the
	// logged ones even if clock records were checkpointed away.
	lsn, err := d.walAppendLocked(walRecSweep, walSweepJSON{At: d.now})
	if err != nil {
		d.mu.Unlock()
		return SweepReport{}, err
	}
	rep, err := d.sweepLocked()
	d.mu.Unlock()
	d.mutSeq.Add(1)
	if err != nil {
		return rep, err
	}
	return rep, d.walWait(lsn)
}

// sweepLocked is the sweep body; the caller holds d.mu exclusively.
func (d *DB) sweepLocked() (SweepReport, error) {
	rep := SweepReport{At: d.now}
	for _, name := range d.tableNamesLocked() {
		if err := d.sweepTable(d.tables[name], &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// sweepTable sweeps one table's rows into rep; the caller holds d.mu
// exclusively.
func (d *DB) sweepTable(t *rowTable, rep *SweepReport) error {
	// Per-column effective retention level under the current policy. The
	// compiled policy precomputes each attribute's retention ceiling (max
	// over its tuples — data is kept while any purpose still needs it), so
	// the sweep does one interner lookup per column instead of
	// materializing the attribute's tuple list.
	type colPolicy struct {
		level   privacy.Level
		covered bool
	}
	cols := make([]colPolicy, t.schema.Len())
	anyCovered := false
	for i := range cols {
		cols[i].level, cols[i].covered = d.assessor.Compiled().RetentionCeiling(t.schema.Column(i).Name)
		if cols[i].covered && i != t.provIdx {
			anyCovered = true
		}
	}
	expired := func(i int, inserted time.Time) bool {
		return d.retention.Expired(d.scales.Retention, cols[i].level, inserted, d.now)
	}

	// Decision phase: classify every slot, fanned out across the
	// shard-count worker pool. Reads only; tombstones decide nothing.
	decisions := make([]rowDecision, len(t.slots))
	core.FanOut(len(t.slots), len(d.shards), func(id int) {
		s := &t.slots[id]
		if s.row == nil {
			return
		}
		dec := &decisions[id]
		liveCovered := 0
		for i, cp := range cols {
			// Identity expires with the row, not cell-wise.
			if !cp.covered || i == t.provIdx || s.expired != nil && s.expired[i] {
				continue
			}
			if expired(i, s.inserted) {
				dec.expire = append(dec.expire, i)
			} else {
				liveCovered++
			}
		}
		// The provider column's own retention decides row deletion.
		rowExpired := !cols[t.provIdx].covered || expired(t.provIdx, s.inserted)
		dec.del = anyCovered && liveCovered == 0 && rowExpired
	})

	// Apply phase: serial, in ascending row-ID order.
	for id, dec := range decisions {
		rep.CellsExpired += len(dec.expire)
		if dec.del {
			t.delete(relational.RowID(id))
			rep.RowsDeleted++
			continue
		}
		if len(dec.expire) == 0 {
			continue
		}
		s := &t.slots[id]
		if s.expired == nil {
			s.expired = make([]bool, len(cols))
		}
		// An expired cell is nulled, or starred in a NOT NULL column.
		row := slices.Clone(s.row)
		for _, i := range dec.expire {
			s.expired[i], row[i] = true, relational.Null()
			if t.schema.Column(i).NotNull {
				row[i] = relational.Text("*")
			}
		}
		if err := t.update(relational.RowID(id), row); err != nil {
			return err
		}
	}
	return nil
}
