package ppdb

import (
	"strings"
	"sync"
	"time"

	"repro/internal/privacy"
)

// AccessRecord is one entry of the audit trail: an access attempt with its
// disposition. The audit framework is the verification step Sec. 10 calls
// the next move toward trust ("verification via an audit framework to
// ensure that the house is adhering to its stated privacy policies").
type AccessRecord struct {
	At         time.Time
	Requester  string
	Purpose    privacy.Purpose
	Visibility privacy.Level
	SQL        string
	Allowed    bool
	// Reason is the denial reason when Allowed is false.
	Reason string
}

// Audit is an append-only access log. Safe for concurrent use.
type Audit struct {
	mu      sync.RWMutex
	records []AccessRecord
}

func newAudit() *Audit { return &Audit{} }

func (a *Audit) record(at time.Time, req EnforcedQuery, allowed bool, reason string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.records = append(a.records, AccessRecord{
		At:         at,
		Requester:  req.Requester,
		Purpose:    req.Purpose.Normalize(),
		Visibility: req.Visibility,
		SQL:        req.SQL,
		Allowed:    allowed,
		Reason:     reason,
	})
}

// Records returns a copy of the full trail.
func (a *Audit) Records() []AccessRecord {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]AccessRecord, len(a.records))
	copy(out, a.records)
	return out
}

// Page returns the number of records whose Requester starts with prefix
// (every record when prefix is empty) plus one page of them in log order —
// the bounded listing the paginated HTTP API serves. offset past the end
// yields an empty page; limit <= 0 yields no rows (count-only).
func (a *Audit) Page(prefix string, offset, limit int) (int, []AccessRecord) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var matched []AccessRecord
	if prefix == "" {
		matched = a.records
	} else {
		for _, r := range a.records {
			if strings.HasPrefix(r.Requester, prefix) {
				matched = append(matched, r)
			}
		}
	}
	total := len(matched)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	if limit < 0 {
		limit = 0
	}
	end := offset + limit
	if end > total {
		end = total
	}
	return total, append([]AccessRecord(nil), matched[offset:end]...)
}

// Len returns the number of recorded accesses.
func (a *Audit) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.records)
}

// Denied returns only the rejected accesses — attempted uses beyond the
// stated policy.
func (a *Audit) Denied() []AccessRecord {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []AccessRecord
	for _, r := range a.records {
		if !r.Allowed {
			out = append(out, r)
		}
	}
	return out
}

// ByPurpose tallies accesses per purpose.
func (a *Audit) ByPurpose() map[privacy.Purpose]int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := map[privacy.Purpose]int{}
	for _, r := range a.records {
		out[r.Purpose]++
	}
	return out
}
