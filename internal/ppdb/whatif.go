package ppdb

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/whatif"
)

// What-if instrumentation (DESIGN.md §10): evaluations by verdict, latency,
// and the affected/reused split that shows whether narrow diffs actually
// stay O(affected). Hoisted once like the other hot-path metrics.
var (
	mWhatIfFree = metrics.Default.Counter("ppdb_whatif_total",
		"what-if evaluations by Eq. 28-31 verdict", "verdict", whatif.VerdictFree)
	mWhatIfJustified = metrics.Default.Counter("ppdb_whatif_total",
		"what-if evaluations by Eq. 28-31 verdict", "verdict", whatif.VerdictJustified)
	mWhatIfUnjustified = metrics.Default.Counter("ppdb_whatif_total",
		"what-if evaluations by Eq. 28-31 verdict", "verdict", whatif.VerdictUnjustified)
	mWhatIfInvalid = metrics.Default.Counter("ppdb_whatif_total",
		"what-if evaluations by Eq. 28-31 verdict", "verdict", "invalid")
	mWhatIfSeconds = metrics.Default.Histogram("ppdb_whatif_seconds",
		"what-if evaluation latency", metrics.DefBuckets)
	mWhatIfAffected = metrics.Default.Counter("ppdb_whatif_affected_total",
		"providers re-assessed under a shadow policy across all what-if evaluations")
	mWhatIfMemoReused = metrics.Default.Counter("ppdb_whatif_memo_reused_total",
		"providers whose live report was reused unchanged across all what-if evaluations")
)

// WhatIf evaluates a candidate policy diff against the live population
// without mutating anything: no store write, no WAL record, no policy-log
// entry. It captures the sorted rows under d.mu shared (the certification
// read path), releases it, and evaluates the shadow policy against those
// immutable rows in place; concurrent registrations and policy swaps
// proceed untouched and simply miss this evaluation's cut.
//
// Every row carries its totals under the live policy (a policy swap
// re-assesses every row under d.mu exclusive), so providers the diff
// cannot affect reuse those totals without any assessment. Under the Sec. 5
// implicit zero — every served store — a diff that moves a tuple with a
// non-zero level or a Σ takes the global fallback and re-assesses everyone
// (DESIGN.md §16).
func (d *DB) WhatIf(req *whatif.Request) (*whatif.Response, error) {
	start := time.Now()
	d.mu.RLock()
	assessor := d.assessor
	attrSens := d.attrSens
	opts := d.opts
	policyVersion := d.policyVersion
	rows := d.table.Rows()
	d.mu.RUnlock()

	// d.scales is immutable after New, like the RegisterProvider validation
	// path that also reads it lock-free.
	eng, err := whatif.NewEngine(assessor, attrSens, opts, policyVersion, req, d.scales)
	if err != nil {
		mWhatIfInvalid.Inc()
		return nil, err
	}

	resp := eng.Evaluate(rows)

	switch resp.Verdict {
	case whatif.VerdictFree:
		mWhatIfFree.Inc()
	case whatif.VerdictJustified:
		mWhatIfJustified.Inc()
	default:
		mWhatIfUnjustified.Inc()
	}
	mWhatIfAffected.Add(uint64(resp.Affected))
	mWhatIfMemoReused.Add(uint64(resp.MemoReused))
	mWhatIfSeconds.Observe(time.Since(start).Seconds())
	return resp, nil
}
