// Package economics implements Sec. 9 of the paper: the utility calculus of
// widening a house privacy policy. Widening raises per-provider utility by T
// but violates more preferences, causing defaults; the expansion pays only
// while Utility_future > Utility_current (Eqs. 25-31). The package also
// provides the what-if engine Sec. 10 sketches: evaluate a hypothetical
// policy against a population before adopting it.
package economics

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/privacy"
)

// Utility computes N × U (Eqs. 25 and 27 use this shape with the applicable
// per-provider utility).
func Utility(n int, perProvider float64) float64 {
	return float64(n) * perProvider
}

// BreakEvenT is Eq. 31: the minimum additional utility T per provider that
// justifies an expansion shrinking the population from nCurrent to nFuture
// at base utility u. A non-positive nFuture means everyone defaults — no
// finite T justifies it and +Inf is returned.
func BreakEvenT(u float64, nCurrent, nFuture int) float64 {
	if nFuture <= 0 {
		return math.Inf(1)
	}
	return u * (float64(nCurrent)/float64(nFuture) - 1)
}

// Justified is Eq. 28-30: whether the expansion's realized extra utility t
// strictly exceeds the break-even.
func Justified(u, t float64, nCurrent, nFuture int) bool {
	if nFuture <= 0 {
		return false
	}
	return Utility(nFuture, u+t) > Utility(nCurrent, u)
}

// Step is one policy-widening move in an expansion scenario.
type Step struct {
	// Label describes the move for reports.
	Label string
	// Apply produces the widened policy from the previous one. It must not
	// mutate its input.
	Apply func(prev *privacy.HousePolicy) *privacy.HousePolicy
	// ExtraUtility is the additional per-provider utility T the house gains
	// from this step (cumulative utility is the sum of applied steps).
	ExtraUtility float64
}

// WidenStep is the common Step: widen every tuple of one attribute along one
// dimension by one level.
func WidenStep(attr string, dim privacy.Dimension, extraUtility float64) Step {
	return Step{
		Label: fmt.Sprintf("widen %s %s +1", attr, dim),
		Apply: func(prev *privacy.HousePolicy) *privacy.HousePolicy {
			return prev.Widen(prev.Name+"+", attr, dim, 1)
		},
		ExtraUtility: extraUtility,
	}
}

// WidenAllStep widens every policy tuple along one dimension by one level.
func WidenAllStep(dim privacy.Dimension, extraUtility float64) Step {
	return Step{
		Label: fmt.Sprintf("widen all %s +1", dim),
		Apply: func(prev *privacy.HousePolicy) *privacy.HousePolicy {
			return prev.WidenAll(prev.Name+"+", dim, 1)
		},
		ExtraUtility: extraUtility,
	}
}

// AddPurposeStep expands the policy by collecting attr for a new purpose.
func AddPurposeStep(attr string, t privacy.Tuple, extraUtility float64) Step {
	return Step{
		Label: fmt.Sprintf("add purpose %s to %s", t.Purpose, attr),
		Apply: func(prev *privacy.HousePolicy) *privacy.HousePolicy {
			return prev.AddPurpose(prev.Name+"+", attr, t)
		},
		ExtraUtility: extraUtility,
	}
}

// Point is the outcome of one step of an expansion scenario — one row of the
// Sec. 9 trade-off series.
type Point struct {
	Step            int
	Label           string
	Policy          *privacy.HousePolicy
	PW              float64 // P(W) under the widened policy
	PDefault        float64 // P(Default) under the widened policy
	TotalViolations float64 // Eq. 16
	NCurrent        int     // providers before this scenario (fixed N at step 0)
	NFuture         int     // providers remaining after defaults
	PerProviderU    float64 // U + accumulated T
	UtilityCurrent  float64 // Eq. 25 (baseline population at base U)
	UtilityFuture   float64 // Eq. 27
	BreakEvenT      float64 // Eq. 31 for this step's population loss
	Justified       bool    // Eq. 28
}

// Scenario runs a sequence of widening steps against a fixed provider
// population under a base per-provider utility.
type Scenario struct {
	// BasePolicy is the starting policy (assumed to default nobody at step
	// 0, per Sec. 9's framing; the step-0 point reports its actual state).
	BasePolicy *privacy.HousePolicy
	// AttrSens is the house Σ vector.
	AttrSens privacy.AttributeSensitivities
	// BaseUtility is U, the per-provider utility before expansion.
	BaseUtility float64
	// Options configures the assessors.
	Options core.Options
}

// Run evaluates the base policy (step 0) and each widening step, returning
// one Point per policy version. Defaulted providers leave the system and are
// excluded from subsequent steps' populations — the accumulation dynamic the
// paper's abstract highlights.
//
// Sec. 9 assumes "currently, no data providers have defaulted": providers
// whose violations already exceed their threshold under the base policy are
// treated as never having joined, so N_current is the base-policy survivor
// count and the step-0 point is the zero-default baseline of Eq. 25.
func (s *Scenario) Run(pop []*privacy.Prefs, steps []Step) ([]Point, error) {
	if s.BasePolicy == nil {
		return nil, fmt.Errorf("economics: scenario needs a base policy")
	}
	if s.BaseUtility < 0 {
		return nil, fmt.Errorf("economics: base utility %g must be non-negative", s.BaseUtility)
	}
	nCurrent := len(pop)
	remaining := append([]*privacy.Prefs(nil), pop...)
	policy := s.BasePolicy
	perU := s.BaseUtility
	var out []Point

	evaluate := func(stepIdx int, label string, extra float64) error {
		assessor, err := core.NewAssessor(policy, s.AttrSens, s.Options)
		if err != nil {
			return err
		}
		rep := assessor.AssessPopulation(remaining)
		perU += extra
		var stay []*privacy.Prefs
		for i, pr := range rep.Providers {
			if !pr.Defaults {
				stay = append(stay, remaining[i])
			}
		}
		nFuture := len(stay)
		pt := Point{
			Step:            stepIdx,
			Label:           label,
			Policy:          policy,
			PW:              rep.PW,
			PDefault:        rep.PDefault,
			TotalViolations: rep.TotalViolations,
			NCurrent:        nCurrent,
			NFuture:         nFuture,
			PerProviderU:    perU,
			UtilityCurrent:  Utility(nCurrent, s.BaseUtility),
			UtilityFuture:   Utility(nFuture, perU),
			BreakEvenT:      BreakEvenT(s.BaseUtility, nCurrent, nFuture),
		}
		pt.Justified = pt.UtilityFuture > pt.UtilityCurrent
		out = append(out, pt)
		remaining = stay
		return nil
	}

	if err := evaluate(0, "base policy "+policy.Name, 0); err != nil {
		return nil, err
	}
	// Re-anchor the baseline on the base-policy survivors (see doc comment).
	nCurrent = len(remaining)
	out[0].NCurrent = nCurrent
	out[0].UtilityCurrent = Utility(nCurrent, s.BaseUtility)
	out[0].UtilityFuture = out[0].UtilityCurrent
	out[0].BreakEvenT = 0
	out[0].Justified = false
	for i, st := range steps {
		if st.Apply == nil {
			return nil, fmt.Errorf("economics: step %d (%s) has no Apply", i+1, st.Label)
		}
		policy = st.Apply(policy)
		if err := evaluate(i+1, st.Label, st.ExtraUtility); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// OptimalStep returns the index of the point with maximal future utility
// (ties broken by the earlier, narrower policy) — where the house should
// stop widening. -1 for an empty series.
func OptimalStep(points []Point) int {
	best := -1
	var bestU float64
	for i, p := range points {
		if best < 0 || p.UtilityFuture > bestU {
			best, bestU = i, p.UtilityFuture
		}
	}
	return best
}

// GreedyPlan searches for a profitable *sequence* of widening moves: at each
// round it evaluates every remaining candidate step from the current state
// (policy + surviving population + accumulated per-provider utility) and
// commits the one with the highest resulting future utility, stopping when
// no candidate improves on standing pat. It returns the committed points in
// order (excluding the base evaluation, which is points[0]).
//
// This operationalizes the Sec. 9 observation that the house is "strictly
// limited" — the plan's length shows exactly how far expansion pays under a
// given population.
func (s *Scenario) GreedyPlan(pop []*privacy.Prefs, candidates []Step) ([]Point, error) {
	if s.BasePolicy == nil {
		return nil, fmt.Errorf("economics: scenario needs a base policy")
	}
	// Establish the zero-default baseline (Sec. 9 assumption) by dropping
	// providers the base policy already defaults.
	basePoints, err := s.Run(pop, nil)
	if err != nil {
		return nil, err
	}
	base := basePoints[0]
	remaining := survivors(s, s.BasePolicy, pop)

	current := base
	policy := s.BasePolicy
	perU := s.BaseUtility
	pool := append([]Step(nil), candidates...)
	var plan []Point

	for len(pool) > 0 {
		bestIdx := -1
		var bestPoint Point
		for i, st := range pool {
			if st.Apply == nil {
				return nil, fmt.Errorf("economics: candidate %q has no Apply", st.Label)
			}
			trialPolicy := st.Apply(policy)
			trial := &Scenario{
				BasePolicy:  trialPolicy,
				AttrSens:    s.AttrSens,
				BaseUtility: perU + st.ExtraUtility,
				Options:     s.Options,
			}
			pts, err := trial.Run(remaining, nil)
			if err != nil {
				return nil, err
			}
			pt := pts[0]
			pt.Label = st.Label
			pt.Step = len(plan) + 1
			pt.Policy = trialPolicy
			pt.PerProviderU = perU + st.ExtraUtility
			pt.NCurrent = current.NFuture
			pt.UtilityCurrent = current.UtilityFuture
			pt.UtilityFuture = Utility(pt.NFuture, pt.PerProviderU)
			pt.BreakEvenT = BreakEvenT(s.BaseUtility, base.NFuture, pt.NFuture)
			pt.Justified = pt.UtilityFuture > current.UtilityFuture
			if pt.Justified && (bestIdx < 0 || pt.UtilityFuture > bestPoint.UtilityFuture) {
				bestIdx = i
				bestPoint = pt
			}
		}
		if bestIdx < 0 {
			break // no candidate improves: stop widening
		}
		st := pool[bestIdx]
		pool = append(pool[:bestIdx], pool[bestIdx+1:]...)
		policy = bestPoint.Policy
		perU += st.ExtraUtility
		remaining = survivors(s, policy, remaining)
		current = bestPoint
		plan = append(plan, bestPoint)
	}
	return plan, nil
}

// survivors returns the providers not defaulting under policy.
func survivors(s *Scenario, policy *privacy.HousePolicy, pop []*privacy.Prefs) []*privacy.Prefs {
	assessor, err := core.NewAssessor(policy, s.AttrSens, s.Options)
	if err != nil {
		return nil
	}
	var out []*privacy.Prefs
	var sc core.Scratch
	for _, p := range pop {
		if !assessor.AssessTotals(p, nil, &sc).Defaults {
			out = append(out, p)
		}
	}
	return out
}

// WhatIf compares the current policy with a hypothetical one over the same
// population: the Sec. 10 "what-if scenarios that modify a house's privacy
// policies with respect to data provider default".
type WhatIf struct {
	Current, Proposed core.PopulationReport
	// DeltaPW and DeltaPDefault are proposed − current.
	DeltaPW, DeltaPDefault float64
	// BreakEvenT is Eq. 31 for the provider loss the proposal would cause
	// at base utility U (set by Compare).
	BreakEvenT float64
}

// Compare assesses both policies against pop at base utility u.
func Compare(current, proposed *privacy.HousePolicy, attrSens privacy.AttributeSensitivities,
	opts core.Options, pop []*privacy.Prefs, u float64) (*WhatIf, error) {
	ca, err := core.NewAssessor(current, attrSens, opts)
	if err != nil {
		return nil, err
	}
	pa, err := core.NewAssessor(proposed, attrSens, opts)
	if err != nil {
		return nil, err
	}
	w := &WhatIf{
		Current:  ca.AssessPopulation(pop),
		Proposed: pa.AssessPopulation(pop),
	}
	w.DeltaPW = w.Proposed.PW - w.Current.PW
	w.DeltaPDefault = w.Proposed.PDefault - w.Current.PDefault
	nFuture := w.Proposed.N - w.Proposed.DefaultCount
	w.BreakEvenT = BreakEvenT(u, w.Current.N-w.Current.DefaultCount, nFuture)
	return w, nil
}
