// Package crosspkgdata is the cross-package fixture of the whole-program
// checkers: a lock-order inversion and an order-dependent map range, each
// reached only through a direct call into another package of the module
// (crosspkgdata/store). The call graph sees both calls only when this
// package and its importer's view of store are one type-checked copy.
//
//lint:lockorder store.Log < crosspkgdata.DB
package crosspkgdata

import (
	"sync"

	"repro/internal/analysis/testdata/src/crosspkgdata/store"
)

// DB is ordered after store.Log, so appending to the log while holding
// its lock inverts the declared order.
type DB struct {
	mu  sync.Mutex
	log *store.Log
	n   int
}

// Write appends while holding d.mu; the log's lock is taken one call away,
// in the other package.
func (d *DB) Write(rec string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
	d.log.Append(rec) // want "call path: (*crosspkgdata.DB).Write → (*store.Log).Append"
}

// Snapshot renders counts for persistence.
//
//lint:deterministic a snapshot is persisted byte for byte
func Snapshot(counts map[string]int) string {
	return store.Render(counts)
}
