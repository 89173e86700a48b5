package ppdb

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
)

// Certification call counters by answer path (DESIGN.md §10): full (the
// kernel pass of Certify over every row) and summary (the O(1) aggregate
// read).
var (
	mCertifyFull = metrics.Default.Counter("ppdb_certify_total",
		"certifications by answer path", "path", "full")
	mCertifySummary = metrics.Default.Counter("ppdb_certify_total",
		"certifications by answer path", "path", "summary")
)

// Certification is the α-PPDB assessment of the database at a point in time
// (Def. 3 operationalized): the population report for the current policy
// over the registered providers, plus the verdict for the requested α.
// Per-provider rows are ordered by canonical provider key, so the report
// (and everything derived from it) is stable across runs.
type Certification struct {
	At         time.Time
	PolicyName string
	Alpha      float64
	Report     core.PopulationReport
	// IsAlphaPPDB is P(W) ≤ α (Eq. 9).
	IsAlphaPPDB bool
	// MinAlpha is the smallest α the database would satisfy (its exact
	// P(W)).
	MinAlpha float64
	// WouldDefault lists providers whose Violation_i exceeds their
	// threshold — the population at risk of leaving.
	WouldDefault []string
}

// CertificationSummary is the aggregate-only certification: the population
// quantities without per-provider rows, answered from the table's running
// aggregate in O(1). TotalViolations is the running float total (last-ulp
// approximate — see internal/ledger); every other field is exact.
type CertificationSummary struct {
	At              time.Time
	PolicyName      string
	PolicyVersion   uint64
	Alpha           float64
	N               int
	ViolatedCount   int     // Σ_i w_i
	DefaultCount    int     // Σ_i default_i
	TotalViolations float64 // Eq. 16
	PW              float64 // Def. 2
	PDefault        float64 // Def. 5
	IsAlphaPPDB     bool
	MinAlpha        float64
}

// Certify assesses the current policy against every registered provider and
// issues the α verdict. The assessor and the rows are read under one read
// lock, so the rows' columns are current for it; the columnar kernel then
// runs over them across the fan-out with the lock released
// (ledger.Assemble).
func (d *DB) Certify(alpha float64) (*Certification, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	mCertifyFull.Inc()
	d.mu.RLock()
	policy, assessor, now, rows := d.policy, d.assessor, d.now, d.table.Rows()
	d.mu.RUnlock()
	return certification(now, policy.Name, alpha, ledger.Assemble(assessor, rows)), nil
}

// CertifySummary answers the population-level certification without
// materializing per-provider rows, in O(1).
func (d *DB) CertifySummary(alpha float64) (*CertificationSummary, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	mCertifySummary.Inc()
	d.mu.RLock()
	policy := d.policy
	now := d.now
	version := d.policyVersion
	sum := d.table.Partial()
	d.mu.RUnlock()
	return &CertificationSummary{
		At:              now,
		PolicyName:      policy.Name,
		PolicyVersion:   version,
		Alpha:           alpha,
		N:               sum.N,
		ViolatedCount:   sum.ViolatedCount,
		DefaultCount:    sum.DefaultCount,
		TotalViolations: sum.TotalViolations,
		PW:              sum.PW(),
		PDefault:        sum.PDefault(),
		IsAlphaPPDB:     core.IsAlphaPPDB(sum.PW(), alpha),
		MinAlpha:        sum.PW(),
	}, nil
}

// checkAlpha validates the α threshold. NaN needs its own test: both
// range comparisons are false for it, and a NaN α would make every
// IsAlphaPPDB verdict false while looking like a successful certification.
func checkAlpha(alpha float64) error {
	if math.IsNaN(alpha) || alpha < 0 || alpha > 1 {
		return fmt.Errorf("ppdb: alpha %g must be in [0, 1]", alpha)
	}
	return nil
}

// certification assembles the verdict around a population report.
func certification(at time.Time, policyName string, alpha float64, rep core.PopulationReport) *Certification {
	cert := &Certification{
		At:          at,
		PolicyName:  policyName,
		Alpha:       alpha,
		Report:      rep,
		IsAlphaPPDB: core.IsAlphaPPDB(rep.PW, alpha),
		MinAlpha:    rep.PW,
	}
	for _, pr := range rep.Providers {
		if pr.Defaults {
			cert.WouldDefault = append(cert.WouldDefault, pr.Provider)
		}
	}
	return cert
}

// EnforceDefaults removes every provider whose violations exceed their
// threshold (Def. 4), simulating the defaults actually happening. It
// returns the removed provider names, in key order, and the number of rows
// deleted. The defaulting providers are read from the rows' totals.
func (d *DB) EnforceDefaults() ([]string, int, error) {
	var names []string
	d.mu.RLock()
	for _, r := range d.table.Rows() {
		if r.Totals.Defaults {
			names = append(names, r.Prefs.Provider)
		}
	}
	d.mu.RUnlock()
	rows := 0
	for _, name := range names {
		n, err := d.RemoveProvider(name)
		if err != nil {
			return names, rows, err
		}
		rows += n
	}
	return names, rows, nil
}
