package privacy

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sensitivity is the per-datum sensitivity element σ_i^j of Eq. 11:
// ⟨s_i^j, s_i^j[V], s_i^j[G], s_i^j[R]⟩ — the sensitivity of the data value
// itself plus the sensitivity the provider attaches to violations along each
// ordered dimension. All four weights multiply into the conflict measure of
// Eq. 14.
type Sensitivity struct {
	Value       float64 // s_i^j: sensitivity of the data value t_i^j
	Visibility  float64 // s_i^j[V]
	Granularity float64 // s_i^j[G]
	Retention   float64 // s_i^j[R]
}

// UnitSensitivity weights every component 1, making conf reduce to the
// attribute-weighted Manhattan overshoot. Useful as an ablation baseline.
var UnitSensitivity = Sensitivity{Value: 1, Visibility: 1, Granularity: 1, Retention: 1}

// Dim returns the dimensional weight s[dim] for an ordered dimension.
func (s Sensitivity) Dim(d Dimension) float64 {
	switch d {
	case DimVisibility:
		return s.Visibility
	case DimGranularity:
		return s.Granularity
	case DimRetention:
		return s.Retention
	default:
		panic(fmt.Sprintf("privacy: Sensitivity.Dim(%s): purpose has no weight", d))
	}
}

// Scale returns a copy of s with every component multiplied by k.
func (s Sensitivity) Scale(k float64) Sensitivity {
	return Sensitivity{
		Value:       s.Value * k,
		Visibility:  s.Visibility * k,
		Granularity: s.Granularity * k,
		Retention:   s.Retention * k,
	}
}

// MaxSensitivity caps every sensitivity weight: each component of σ
// (Eq. 11) and each attribute's Σ^a (Eq. 10). Corpora use single digits
// and the Westin generator draws σ near 3, so the cap binds on nothing
// real; it exists so that no report float can overflow to ±Inf, which
// JSON cannot carry. One severity term of Eq. 14 is
// overshoot × Σ^a × s × s[dim] < 2^63 × (1e6)^3 ≈ 9.2e36, since an
// overshoot is a difference of int levels. Violation_i (Eq. 15) and the
// house total (Eq. 16) add three such terms per comparable (preference,
// policy) pair of every provider: fewer than 3 × (2^64)^3 terms, because
// providers, preference tuples and policy tuples each take memory. So
// every sum stays below 9.2e36 × 2^194 ≈ 2.3e95, and rounding a running
// sum of non-negative terms at most doubles it: far under MaxFloat64.
const MaxSensitivity = 1e6

// checkWeight refuses a weight outside [0, MaxSensitivity], NaN included.
func checkWeight(w float64) error {
	switch {
	case math.IsNaN(w):
		return errors.New("is not a number")
	case w < 0:
		return errors.New("is negative")
	case w > MaxSensitivity:
		return fmt.Errorf("exceeds the cap %g", float64(MaxSensitivity))
	}
	return nil
}

// Validate rejects weights outside [0, MaxSensitivity]: the severity model
// assumes sensitivities are non-negative so conf is monotone in policy
// widening, and bounded so it stays finite.
func (s Sensitivity) Validate() error {
	for _, w := range [...]float64{s.Value, s.Visibility, s.Granularity, s.Retention} {
		if err := checkWeight(w); err != nil {
			return fmt.Errorf("privacy: sensitivity %s has a component that %w", s, err)
		}
	}
	return nil
}

// String renders the sensitivity as the paper's vector notation.
func (s Sensitivity) String() string {
	return fmt.Sprintf("<%g, %g, %g, %g>", s.Value, s.Visibility, s.Granularity, s.Retention)
}

// AttributeSensitivities is the house-side vector Σ of Eq. 10: one
// sensitivity value Σ^j per attribute, reflecting social norms (e.g. Westin
// ranks financial and health attributes highest). The paper defines Σ^j as
// an integer; float64 admits normalized survey scores too.
type AttributeSensitivities map[string]float64

// Get returns Σ^attr, defaulting to 1 for attributes without an explicit
// entry so unknown attributes still register severity.
func (as AttributeSensitivities) Get(attr string) float64 {
	if as == nil {
		return 1
	}
	if v, ok := as[canonAttr(attr)]; ok {
		return v
	}
	return 1
}

// Set records Σ^attr.
func (as AttributeSensitivities) Set(attr string, v float64) {
	as[canonAttr(attr)] = v
}

// Validate rejects attribute sensitivities outside [0, MaxSensitivity],
// naming the first offender in sorted attribute order.
func (as AttributeSensitivities) Validate() error {
	attrs := make([]string, 0, len(as))
	for a := range as {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		if err := checkWeight(as[a]); err != nil {
			return fmt.Errorf("privacy: attribute sensitivity Σ^%s = %g %w", a, as[a], err)
		}
	}
	return nil
}
