// Package game implements the game-theoretic extension Sec. 9 anticipates:
// "Weakening of these assumptions leads naturally to a game theoretic
// setting where one can examine the balance between the competing interests
// of a house and its data providers."
//
// The interaction is modelled as a Stackelberg game. The house (leader)
// commits to a policy from a candidate set and, optionally, a per-provider
// incentive payment (the paper notes its base analysis "assume[s] that
// expansions of house privacy policies are not ameliorated by the provision
// of incentives" — here they can be). Providers (followers) best-respond by
// participating exactly when their weighed violation does not exceed their
// tolerance: Violation_i ≤ v_i + κ·incentive, where κ converts payment into
// tolerance. The house's payoff is N_participating × (U + T(policy) −
// incentive); the equilibrium is the house strategy maximizing that payoff
// under provider best response.
package game

import (
	"fmt"
	"math"

	"repro/internal/analysis/floatutil"
	"repro/internal/core"
	"repro/internal/privacy"
)

// HouseStrategy is one element of the leader's strategy space.
type HouseStrategy struct {
	// Policy is the committed house policy.
	Policy *privacy.HousePolicy
	// ExtraUtility is T: the per-provider utility the policy earns on top of
	// the base U (wider policies earn more).
	ExtraUtility float64
	// Incentive is the per-provider payment offered to stay (≥ 0).
	Incentive float64
}

// String renders the strategy.
func (s HouseStrategy) String() string {
	return fmt.Sprintf("{policy %s, T=%g, incentive=%g}", s.Policy.Name, s.ExtraUtility, s.Incentive)
}

// Config parameterises the game.
type Config struct {
	// AttrSens is the house Σ vector.
	AttrSens privacy.AttributeSensitivities
	// Options configures the violation assessor.
	Options core.Options
	// BaseUtility is U.
	BaseUtility float64
	// ToleranceGain is κ: how much one unit of incentive raises a provider's
	// effective default threshold. κ = 0 reduces to the paper's base model.
	ToleranceGain float64
}

// ProviderResponse is one provider's best response to a house strategy.
type ProviderResponse struct {
	Provider     string
	Violation    float64
	Threshold    float64 // v_i
	Effective    float64 // v_i + κ·incentive
	Participates bool
}

// Outcome is the result of playing one house strategy against the
// population.
type Outcome struct {
	Strategy     HouseStrategy
	Participants int
	Defectors    int
	// HousePayoff = Participants × (U + T − incentive).
	HousePayoff float64
	// ProviderSurplus is the aggregate tolerance slack of participants:
	// Σ max(0, effective − Violation_i). A crude welfare proxy for
	// comparing equilibria.
	ProviderSurplus float64
	Responses       []ProviderResponse
}

// Game couples a provider population with the game parameters.
type Game struct {
	cfg Config
	pop []*privacy.Prefs
}

// New validates and builds a game.
func New(cfg Config, pop []*privacy.Prefs) (*Game, error) {
	if cfg.BaseUtility < 0 {
		return nil, fmt.Errorf("game: base utility %g must be non-negative", cfg.BaseUtility)
	}
	if cfg.ToleranceGain < 0 {
		return nil, fmt.Errorf("game: tolerance gain %g must be non-negative", cfg.ToleranceGain)
	}
	if len(pop) == 0 {
		return nil, fmt.Errorf("game: empty population")
	}
	return &Game{cfg: cfg, pop: pop}, nil
}

// Play evaluates one house strategy: providers best-respond and the house
// payoff is computed.
func (g *Game) Play(s HouseStrategy) (*Outcome, error) {
	if s.Policy == nil {
		return nil, fmt.Errorf("game: strategy has no policy")
	}
	if s.Incentive < 0 {
		return nil, fmt.Errorf("game: negative incentive %g", s.Incentive)
	}
	assessor, err := core.NewAssessor(s.Policy, g.cfg.AttrSens, g.cfg.Options)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Strategy: s}
	boost := g.cfg.ToleranceGain * s.Incentive
	var sc core.Scratch
	for _, p := range g.pop {
		violation := assessor.AssessRow(p, nil, &sc).Violation
		eff := p.Threshold + boost
		resp := ProviderResponse{
			Provider:     p.Provider,
			Violation:    violation,
			Threshold:    p.Threshold,
			Effective:    eff,
			Participates: violation <= eff,
		}
		if resp.Participates {
			out.Participants++
			out.ProviderSurplus += eff - violation
		} else {
			out.Defectors++
		}
		out.Responses = append(out.Responses, resp)
	}
	out.HousePayoff = float64(out.Participants) * (g.cfg.BaseUtility + s.ExtraUtility - s.Incentive)
	return out, nil
}

// Equilibrium is the leader's optimum over a finite strategy set.
type Equilibrium struct {
	Best     *Outcome
	Outcomes []*Outcome
}

// Solve evaluates every strategy and returns the house's best response to
// provider best responses (the Stackelberg equilibrium over the finite
// strategy set). Ties prefer the earlier strategy (narrower policies should
// be listed first).
func (g *Game) Solve(strategies []HouseStrategy) (*Equilibrium, error) {
	if len(strategies) == 0 {
		return nil, fmt.Errorf("game: no strategies")
	}
	eq := &Equilibrium{}
	for _, s := range strategies {
		out, err := g.Play(s)
		if err != nil {
			return nil, err
		}
		eq.Outcomes = append(eq.Outcomes, out)
		if eq.Best == nil || out.HousePayoff > eq.Best.HousePayoff {
			eq.Best = out
		}
	}
	return eq, nil
}

// IncentiveGrid expands a base strategy into variants offering each payment
// in incentives (the incentive dimension of the leader's strategy space).
func IncentiveGrid(base HouseStrategy, incentives []float64) []HouseStrategy {
	out := make([]HouseStrategy, 0, len(incentives))
	for _, inc := range incentives {
		s := base
		s.Incentive = inc
		out = append(out, s)
	}
	return out
}

// OptimalIncentive finds, for a fixed policy, the payment maximizing house
// payoff by scanning the provider tolerance gaps: the only candidate
// payments are 0 and the exact gaps (Violation_i − v_i)/κ of current
// defectors (paying anything between two gaps buys no extra participant).
func (g *Game) OptimalIncentive(s HouseStrategy) (*Outcome, error) {
	if g.cfg.ToleranceGain <= 0 {
		s.Incentive = 0
		return g.Play(s)
	}
	assessor, err := core.NewAssessor(s.Policy, g.cfg.AttrSens, g.cfg.Options)
	if err != nil {
		return nil, err
	}
	candidates := []float64{0}
	var sc core.Scratch
	for _, p := range g.pop {
		gap := assessor.AssessRow(p, nil, &sc).Violation - p.Threshold
		if gap > 0 {
			candidates = append(candidates, gap/g.cfg.ToleranceGain)
		}
	}
	var best *Outcome
	for _, inc := range candidates {
		// Nudge up to absorb float error at the boundary (participation is
		// a ≤ comparison).
		s.Incentive = inc * (1 + 1e-12)
		out, err := g.Play(s)
		if err != nil {
			return nil, err
		}
		if best == nil || out.HousePayoff > best.HousePayoff ||
			(floatutil.Eq(out.HousePayoff, best.HousePayoff) && out.Strategy.Incentive < best.Strategy.Incentive) {
			best = out
		}
	}
	// Canonicalize a ~zero incentive.
	if best != nil && math.Abs(best.Strategy.Incentive) < 1e-9 {
		best.Strategy.Incentive = 0
	}
	return best, nil
}
