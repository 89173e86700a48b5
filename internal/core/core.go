// Package core implements the privacy-violation model of "Quantifying
// Privacy Violations" (Banerjee, Karimi Adl, Wu & Barker, SDM@VLDB 2011):
// the violation predicate w_i (Def. 1), the diff / comp / conf severity
// machinery (Eqs. 12-14), per-provider and house-total violation amounts
// (Eqs. 15-16), data-provider default (Def. 4), and the relative-frequency
// probabilities P(W) and P(Default) (Defs. 2 and 5) with the α-PPDB
// predicate (Def. 3).
//
// The package is pure: it consumes privacy.HousePolicy and privacy.Prefs
// values and produces reports. Enforcement against live data lives in
// internal/ppdb; population synthesis in internal/population.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/privacy"
)

// Diff is Eq. 12: the overshoot of a policy level P past a preference level
// p along one ordered dimension, floored at zero.
func Diff(pref, pol privacy.Level) int {
	if pol > pref {
		return int(pol - pref)
	}
	return 0
}

// Comp is Eq. 13: a preference tuple and a policy tuple are comparable iff
// they concern the same attribute and (under the matcher m) the same
// purpose. m nil means the paper's strict purpose equality.
func Comp(prefAttr string, pref privacy.Tuple, polAttr string, pol privacy.Tuple, m privacy.Matcher) bool {
	if m == nil {
		m = privacy.EqualityMatcher{}
	}
	if !sameAttr(prefAttr, polAttr) {
		return false
	}
	return m.Covers(pref.Purpose, pol.Purpose)
}

// sameAttr compares attribute identities case-insensitively, mirroring the
// canonical form used by package privacy.
func sameAttr(a, b string) bool {
	return strings.EqualFold(strings.TrimSpace(a), strings.TrimSpace(b))
}

// Conf is Eq. 14: the conflict between one preference tuple and one policy
// tuple. When the tuples are comparable, each ordered dimension's overshoot
// diff(p[dim], p'[dim]) is weighted by the attribute sensitivity Σ^a, the
// data-value sensitivity s_i^a, and the dimension sensitivity s_i^a[dim];
// otherwise the conflict is zero.
func Conf(prefAttr string, pref privacy.Tuple, polAttr string, pol privacy.Tuple,
	attrSens float64, sens privacy.Sensitivity, m privacy.Matcher) float64 {
	if !Comp(prefAttr, pref, polAttr, pol, m) {
		return 0
	}
	var total float64
	for _, d := range privacy.OrderedDimensions {
		over := Diff(pref.Get(d), pol.Get(d))
		if over == 0 {
			continue
		}
		total += float64(over) * attrSens * sens.Value * sens.Dim(d)
	}
	return total
}

// Options configures an Assessor. The zero value is the paper's base model.
type Options struct {
	// Matcher decides purpose coverage; nil means strict equality (Eq. 13).
	Matcher privacy.Matcher
	// DisableImplicitZero turns off the Sec. 5 rule that a provider who
	// expressed no preference for a house purpose implicitly prefers
	// ⟨pr, 0, 0, 0⟩. Disabling it is an ablation, not the paper's model.
	DisableImplicitZero bool
}

// Assessor evaluates a house policy against provider preferences. It is
// immutable after construction and safe for concurrent use.
type Assessor struct {
	policy   *privacy.HousePolicy
	attrSens privacy.AttributeSensitivities
	opts     Options
	// compiled is the policy flattened for the columnar kernel (compile.go),
	// built once here so every Compile/AssessCompiled call shares it.
	compiled *CompiledPolicy
}

// NewAssessor builds an assessor for policy hp with house attribute
// sensitivities Σ (nil means Σ^a = 1 for every attribute). The policy is
// flattened for the columnar kernel at construction, so hp must not be
// mutated afterwards (the immutable-by-convention rule internal/ppdb
// already imposes: policy changes swap the pointer via SetPolicy).
func NewAssessor(hp *privacy.HousePolicy, attrSens privacy.AttributeSensitivities, opts Options) (*Assessor, error) {
	if hp == nil {
		return nil, fmt.Errorf("core: nil house policy")
	}
	if err := attrSens.Validate(); err != nil {
		return nil, err
	}
	return &Assessor{
		policy:   hp,
		attrSens: attrSens,
		opts:     opts,
		compiled: compilePolicy(hp, attrSens),
	}, nil
}

// Policy returns the policy being assessed.
func (a *Assessor) Policy() *privacy.HousePolicy { return a.policy }

// DimensionViolation records the overshoot along one dimension of one
// comparable tuple pair.
type DimensionViolation struct {
	Dimension privacy.Dimension
	PrefLevel privacy.Level
	PolLevel  privacy.Level
	Overshoot int     // Diff(PrefLevel, PolLevel), always > 0 in reports
	Severity  float64 // Overshoot × Σ^a × s_i^a × s_i^a[dim]
}

// PairConflict is the full account of one comparable (preference, policy)
// tuple pair with a positive conflict.
type PairConflict struct {
	Attribute    string
	Purpose      privacy.Purpose
	Pref, Policy privacy.Tuple
	ImplicitZero bool // the preference was synthesized by the Sec. 5 rule
	Dims         []DimensionViolation
	Conf         float64 // Eq. 14 for this pair
}

// Totals is the part of a provider's assessment the population answers
// are sums of (Assessor.AssessTotals): w_i (Def. 1: some comparable
// tuple pair has the policy strictly exceeding the preference along
// visibility, granularity or retention), Violation_i (Eq. 15) and
// default_i (Def. 4).
type Totals struct {
	Violation          float64
	Violated, Defaults bool
}

// ProviderReport is the per-provider assessment: w_i, Violation_i (Eq. 15),
// default_i (Def. 4) and the contributing pair conflicts.
type ProviderReport struct {
	Provider  string
	Violated  bool    // w_i
	Violation float64 // Violation_i
	Threshold float64 // v_i
	Defaults  bool    // default_i = Violation_i > v_i
	Pairs     []PairConflict
}

// AssessProvider produces the complete report for one provider: every
// comparable (preference, policy) tuple pair Eq. 15 sums over, computed by
// the columnar kernel on freshly compiled columns.
func (a *Assessor) AssessProvider(p *privacy.Prefs) ProviderReport {
	return a.AssessRow(p, nil, nil)
}

// AssessOne is AssessProvider, kept for the benchmark's traced twin, its
// one caller.
func (a *Assessor) AssessOne(p *privacy.Prefs) ProviderReport {
	return a.AssessProvider(p)
}

// PopulationReport aggregates a whole provider population: P(W) (Def. 2),
// P(Default) (Def. 5), the house total Violations (Eq. 16), and per-provider
// reports.
type PopulationReport struct {
	N               int
	ViolatedCount   int     // Σ_i w_i
	DefaultCount    int     // Σ_i default_i
	TotalViolations float64 // Eq. 16
	PW              float64 // Def. 2, exact: Σ w_i / N
	PDefault        float64 // Def. 5, exact: Σ default_i / N
	Providers       []ProviderReport
}

// AssessPopulation evaluates every provider and aggregates. An empty
// population yields zero probabilities.
func (a *Assessor) AssessPopulation(pop []*privacy.Prefs) PopulationReport {
	rows := make([]ProviderReport, 0, len(pop))
	var sc Scratch
	for _, p := range pop {
		rows = append(rows, a.AssessRow(p, nil, &sc))
	}
	return AssemblePopulation(rows)
}

// AssemblePopulation aggregates precomputed per-provider rows into a
// PopulationReport without re-assessing anyone — the step every
// certification ends in (internal/ledger). The float total is summed in
// slice order, so feeding it the same rows in the same order as a direct
// AssessPopulation yields bit-identical results. The rows slice is
// retained as Providers, not copied.
//
//lint:deterministic assembly order defines the canonical float-sum order
func AssemblePopulation(rows []ProviderReport) PopulationReport {
	rep := PopulationReport{N: len(rows), Providers: rows}
	for i := range rows {
		if rows[i].Violated {
			rep.ViolatedCount++
		}
		if rows[i].Defaults {
			rep.DefaultCount++
		}
		rep.TotalViolations += rows[i].Violation
	}
	if rep.N > 0 {
		rep.PW = float64(rep.ViolatedCount) / float64(rep.N)
		rep.PDefault = float64(rep.DefaultCount) / float64(rep.N)
	}
	return rep
}

// IsAlphaPPDB is Def. 3: the database is an α-PPDB when P(W) ≤ α.
func IsAlphaPPDB(pw, alpha float64) bool { return pw <= alpha }

// MinAlpha returns the smallest α for which the population is an α-PPDB —
// exactly its P(W).
func (a *Assessor) MinAlpha(pop []*privacy.Prefs) float64 {
	return a.AssessPopulation(pop).PW
}

// ViolatedDimensionsHistogram tallies, across a population, how many
// providers are violated along each ordered dimension (a provider counts
// once per dimension regardless of how many pairs overshoot it). This
// regenerates the Figure 1 taxonomy of none / single-dimension /
// multi-dimension violations at population scale.
func (a *Assessor) ViolatedDimensionsHistogram(pop []*privacy.Prefs) map[privacy.Dimension]int {
	hist := make(map[privacy.Dimension]int, len(privacy.OrderedDimensions))
	var sc Scratch
	for _, p := range pop {
		rep := a.AssessRow(p, nil, &sc)
		seen := map[privacy.Dimension]bool{}
		for _, pc := range rep.Pairs {
			for _, dv := range pc.Dims {
				seen[dv.Dimension] = true
			}
		}
		for d := range seen {
			hist[d]++
		}
	}
	return hist
}

// TopViolated returns the k reports with the largest Violation_i, ordered
// descending (ties by provider name for determinism) — the audit ranking of
// an already-assessed population. reps is not reordered.
func TopViolated(reps []ProviderReport, k int) []ProviderReport {
	reps = append([]ProviderReport(nil), reps...)
	sort.Slice(reps, func(i, j int) bool {
		//lint:ignore floatcmp a sort comparator needs a strict weak order; a tolerance would make "equal" intransitive
		if reps[i].Violation != reps[j].Violation {
			return reps[i].Violation > reps[j].Violation
		}
		return reps[i].Provider < reps[j].Provider
	})
	if k > len(reps) {
		k = len(reps)
	}
	return reps[:k]
}
