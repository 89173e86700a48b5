package ppdb

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
)

// Certification call counters by answer path (DESIGN.md §10): incremental
// (assembled from the memoized rows), full (the O(N) recompute of
// CertifyFull), and summary (the O(P) aggregate read).
var (
	mCertifyIncremental = metrics.Default.Counter("ppdb_certify_total",
		"certifications by answer path", "path", "incremental")
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
// issues the α verdict. The report is assembled from the memoized
// per-provider rows — O(N) copying, zero re-assessment — and is
// byte-identical to CertifyFull.
func (d *DB) Certify(alpha float64) (*Certification, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	mCertifyIncremental.Inc()
	d.mu.RLock()
	policy := d.policy
	now := d.now
	rows := d.table.Rows()
	d.mu.RUnlock()
	return certification(now, policy.Name, alpha, ledger.Assemble(rows)), nil
}

// CertifyFull recomputes the certification from scratch over the whole
// population — the O(N) cold path, kept as the oracle the equivalence tests
// compare Certify against. It runs the columnar kernel (DESIGN.md §13) over
// the rows' compiled tuple columns across the fan-out, one scratch arena
// per key range, into slots aligned with the sorted rows, then assembles
// them in that order — the same enumeration and float-sum order as a
// serial per-provider recompute, so the result is bit-identical to it.
//
//lint:deterministic certification bytes are the paper's auditable artifact (Eq. 12-16)
func (d *DB) CertifyFull(alpha float64) (*Certification, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	mCertifyFull.Inc()
	d.mu.RLock()
	policy := d.policy
	assessor := d.assessor
	now := d.now
	rows := d.table.Rows()
	d.mu.RUnlock()

	// The rows are immutable, so no lock is needed; each worker reuses one
	// scratch arena across its whole range.
	reps := make([]core.ProviderReport, len(rows))
	core.FanOut(len(rows), func(lo, hi int) {
		var sc core.Scratch
		for i := lo; i < hi; i++ {
			reps[i] = assessor.AssessRow(rows[i].Prefs, rows[i].Compiled, &sc)
		}
	})
	return certification(now, policy.Name, alpha, core.AssemblePopulation(reps)), nil
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
// returns the removed provider names and the number of rows deleted.
func (d *DB) EnforceDefaults() ([]string, int, error) {
	cert, err := d.Certify(1)
	if err != nil {
		return nil, 0, err
	}
	rows := 0
	for _, name := range cert.WouldDefault {
		n, err := d.RemoveProvider(name)
		if err != nil {
			return cert.WouldDefault, rows, err
		}
		rows += n
	}
	return cert.WouldDefault, rows, nil
}
