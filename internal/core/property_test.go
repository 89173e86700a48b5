package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/privacy"
)

// Property: Conf is linear in the attribute sensitivity Σ^a (Eq. 14 is a
// product).
func TestConfLinearInAttrSens(t *testing.T) {
	f := func(pv, pg, pr, hv, hg, hr uint8, sigmaRaw uint8) bool {
		pref := privacy.Tuple{Purpose: "p",
			Visibility: privacy.Level(pv % 6), Granularity: privacy.Level(pg % 6), Retention: privacy.Level(pr % 6)}
		pol := privacy.Tuple{Purpose: "p",
			Visibility: privacy.Level(hv % 6), Granularity: privacy.Level(hg % 6), Retention: privacy.Level(hr % 6)}
		sigma := float64(sigmaRaw%10) + 1
		s := privacy.Sensitivity{Value: 2, Visibility: 1, Granularity: 3, Retention: 2}
		base := Conf("x", pref, "x", pol, 1, s, nil)
		scaled := Conf("x", pref, "x", pol, sigma, s, nil)
		return math.Abs(scaled-sigma*base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Conf is linear in the data-value sensitivity s_i^a.
func TestConfLinearInValueSens(t *testing.T) {
	f := func(pv, hv uint8, k uint8) bool {
		pref := privacy.Tuple{Purpose: "p", Visibility: privacy.Level(pv % 6)}
		pol := privacy.Tuple{Purpose: "p", Visibility: privacy.Level(hv % 6)}
		s := privacy.Sensitivity{Value: 1, Visibility: 2, Granularity: 1, Retention: 1}
		factor := float64(k%7) + 1
		scaled := s
		scaled.Value *= factor
		base := Conf("x", pref, "x", pol, 3, s, nil)
		got := Conf("x", pref, "x", pol, 3, scaled, nil)
		return math.Abs(got-factor*base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Conf is additive across dimensions — the total equals the sum of
// single-dimension conflicts with the other dimensions zeroed out.
func TestConfAdditiveAcrossDimensions(t *testing.T) {
	f := func(pv, pg, pr, hv, hg, hr uint8) bool {
		pref := privacy.Tuple{Purpose: "p",
			Visibility: privacy.Level(pv % 6), Granularity: privacy.Level(pg % 6), Retention: privacy.Level(pr % 6)}
		pol := privacy.Tuple{Purpose: "p",
			Visibility: privacy.Level(hv % 6), Granularity: privacy.Level(hg % 6), Retention: privacy.Level(hr % 6)}
		s := privacy.Sensitivity{Value: 2, Visibility: 3, Granularity: 1, Retention: 2}
		total := Conf("x", pref, "x", pol, 4, s, nil)
		// Eq. 14 is a sum of per-dimension shares; recompute them directly.
		var direct float64
		for _, d := range privacy.OrderedDimensions {
			over := Diff(pref.Get(d), pol.Get(d))
			direct += float64(over) * 4 * s.Value * s.Dim(d)
		}
		return math.Abs(total-direct) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a provider whose every preference tuple dominates the policy
// (levels ≥ policy on all dims, same purposes stated) is never violated.
func TestDominatingPreferencesNeverViolated(t *testing.T) {
	f := func(hv, hg, hr uint8, dv, dg, dr uint8) bool {
		pol := privacy.Tuple{Purpose: "p",
			Visibility:  privacy.Level(hv % 5),
			Granularity: privacy.Level(hg % 5),
			Retention:   privacy.Level(hr % 5)}
		hp := privacy.NewHousePolicy("h")
		hp.Add("x", pol)
		pref := privacy.Tuple{Purpose: "p",
			Visibility:  pol.Visibility + privacy.Level(dv%3),
			Granularity: pol.Granularity + privacy.Level(dg%3),
			Retention:   pol.Retention + privacy.Level(dr%3)}
		prov := privacy.NewPrefs("i", 0)
		prov.Add("x", pref)
		a, err := NewAssessor(hp, nil, Options{})
		if err != nil {
			return false
		}
		return !a.AssessTotals(prov, nil, new(Scratch)).Violated && a.AssessTotals(prov, nil, new(Scratch)).Violation == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: P(W) and P(Default) always lie in [0, 1] and P(Default) never
// exceeds P(W) when all thresholds are non-negative (default requires a
// positive violation).
func TestProbabilityBounds(t *testing.T) {
	f := func(levels []uint8) bool {
		hp := privacy.NewHousePolicy("h")
		hp.Add("x", privacy.Tuple{Purpose: "p", Visibility: 2, Granularity: 2, Retention: 2})
		a, err := NewAssessor(hp, nil, Options{})
		if err != nil {
			return false
		}
		var pop []*privacy.Prefs
		for i, l := range levels {
			if i >= 20 {
				break
			}
			p := privacy.NewPrefs(string(rune('a'+i%26))+"x", float64(l%8))
			p.Add("x", privacy.Tuple{Purpose: "p",
				Visibility:  privacy.Level(l % 5),
				Granularity: privacy.Level((l / 5) % 4),
				Retention:   privacy.Level((l / 20) % 6)})
			pop = append(pop, p)
		}
		rep := a.AssessPopulation(pop)
		if rep.PW < 0 || rep.PW > 1 || rep.PDefault < 0 || rep.PDefault > 1 {
			return false
		}
		return rep.PDefault <= rep.PW+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
