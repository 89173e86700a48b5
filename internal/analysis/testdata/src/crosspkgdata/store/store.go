// Package store is the imported half of the crosspkgdata fixture.
package store

import (
	"strconv"
	"strings"
	"sync"
)

// Log is a lock class of its own.
type Log struct {
	mu   sync.Mutex
	recs []string
}

// Append takes the log's lock.
func (l *Log) Append(rec string) {
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

// Render writes counts in map order.
func Render(counts map[string]int) string {
	var b strings.Builder
	for k, v := range counts { // want "non-deterministic map iteration in store.Render"
		b.WriteString(k + "=" + strconv.Itoa(v) + "\n")
	}
	return b.String()
}
