package core

import (
	"fmt"

	"repro/internal/privacy"
)

// IntnSource supplies uniform random integers in [0, n); both math/rand and
// the deterministic generator in internal/population satisfy it.
type IntnSource interface {
	Intn(n int) int
}

// Estimate is the outcome of a relative-frequency estimation run
// (Defs. 2 and 5): τ trials of drawing a random provider and testing an
// event, with τ(A)/τ tending to P(A).
type Estimate struct {
	Trials int     // τ
	Hits   int     // τ(A)
	P      float64 // τ(A)/τ
}

// EstimatePW estimates P(W) (Def. 2) by trials random selections of a data
// provider with replacement. It returns an error for an empty population or
// non-positive trial count.
func (a *Assessor) EstimatePW(pop []*privacy.Prefs, trials int, rng IntnSource) (Estimate, error) {
	var sc Scratch
	return a.estimate(pop, trials, rng, func(p *privacy.Prefs) bool { return a.AssessRow(p, nil, &sc).Violated })
}

// EstimatePDefault estimates P(Default) (Def. 5) by trials random selections
// of a data provider with replacement.
func (a *Assessor) EstimatePDefault(pop []*privacy.Prefs, trials int, rng IntnSource) (Estimate, error) {
	var sc Scratch
	return a.estimate(pop, trials, rng, func(p *privacy.Prefs) bool { return a.AssessRow(p, nil, &sc).Defaults })
}

func (a *Assessor) estimate(pop []*privacy.Prefs, trials int, rng IntnSource, event func(*privacy.Prefs) bool) (Estimate, error) {
	if len(pop) == 0 {
		return Estimate{}, fmt.Errorf("core: cannot estimate over an empty population")
	}
	if trials <= 0 {
		return Estimate{}, fmt.Errorf("core: trial count %d must be positive", trials)
	}
	if rng == nil {
		return Estimate{}, fmt.Errorf("core: nil random source")
	}
	// Memoize per-provider outcomes: a trial only re-samples the provider,
	// the event value for a fixed policy is deterministic.
	memo := make(map[int]bool, len(pop))
	est := Estimate{Trials: trials}
	for t := 0; t < trials; t++ {
		i := rng.Intn(len(pop))
		hit, ok := memo[i]
		if !ok {
			hit = event(pop[i])
			memo[i] = hit
		}
		if hit {
			est.Hits++
		}
	}
	est.P = float64(est.Hits) / float64(est.Trials)
	return est, nil
}
