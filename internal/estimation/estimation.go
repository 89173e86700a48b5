// Package estimation implements the legacy-system programme of Sec. 10: "in
// the absence of explicit tracking of providers' privacy preferences or
// knowledge of the specific values v_i at which data providers default, the
// model identifies the quantities that require estimation. Long-term
// observation of a particular house and its population of users … can be
// used to identify the number of users who will default as a house expands
// its privacy policy. This in turn can be used to empirically construct a
// cumulative distribution function of the number of defaults as the house
// expands its privacy policies."
//
// Concretely: each historical policy version contributes an observation
// (severity index S_k, observed default fraction F_k). Because defaults are
// triggered by Violation_i exceeding a fixed threshold, the true mapping
// S → default fraction is non-decreasing; we therefore fit a monotone curve
// by isotonic regression (pool-adjacent-violators) and interpolate to
// predict the default fraction of a policy the house has not yet tried.
// The severity index of a candidate policy is computed against a small
// surveyed sample of preferences (the paper's "survey questions" route).
package estimation

import (
	"fmt"
	"sort"

	"repro/internal/analysis/floatutil"
	"repro/internal/core"
	"repro/internal/privacy"
)

// Observation is one historical data point: a policy's severity index and
// the default fraction observed under it.
type Observation struct {
	Severity    float64 // severity index S_k (e.g. mean Violation_i on a survey sample)
	DefaultFrac float64 // observed fraction of providers that defaulted
}

// Curve is a fitted monotone severity → default-fraction mapping.
type Curve struct {
	xs, ys []float64 // strictly increasing xs, non-decreasing ys
}

// Fit sorts the observations by severity, averages duplicates, and applies
// pool-adjacent-violators to enforce monotonicity. At least two distinct
// severity values are required.
func Fit(obs []Observation) (*Curve, error) {
	if len(obs) < 2 {
		return nil, fmt.Errorf("estimation: need at least two observations, got %d", len(obs))
	}
	sorted := append([]Observation(nil), obs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Severity < sorted[j].Severity })
	for _, o := range sorted {
		if o.DefaultFrac < 0 || o.DefaultFrac > 1 {
			return nil, fmt.Errorf("estimation: default fraction %g outside [0, 1]", o.DefaultFrac)
		}
	}
	// Merge duplicate severities by averaging. Severities are Eq. 15 sums,
	// so "duplicate" must tolerate summation-order noise or two providers
	// with the same preferences would produce two isotonic knots.
	var xs, ys, ws []float64
	for _, o := range sorted {
		if len(xs) > 0 && floatutil.Eq(o.Severity, xs[len(xs)-1]) {
			n := ws[len(ws)-1]
			ys[len(ys)-1] = (ys[len(ys)-1]*n + o.DefaultFrac) / (n + 1)
			ws[len(ws)-1] = n + 1
			continue
		}
		xs = append(xs, o.Severity)
		ys = append(ys, o.DefaultFrac)
		ws = append(ws, 1)
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("estimation: need at least two distinct severity values")
	}
	pav(ys, ws)
	return &Curve{xs: xs, ys: ys}, nil
}

// pav is the pool-adjacent-violators algorithm: it replaces ys in place by
// the best non-decreasing fit under weights ws.
func pav(ys, ws []float64) {
	type block struct {
		sum, w float64
		count  int
	}
	var blocks []block
	for i := range ys {
		blocks = append(blocks, block{sum: ys[i] * ws[i], w: ws[i], count: 1})
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/a.w <= b.sum/b.w {
				break
			}
			blocks = blocks[:len(blocks)-1]
			blocks[len(blocks)-1] = block{sum: a.sum + b.sum, w: a.w + b.w, count: a.count + b.count}
		}
	}
	i := 0
	for _, bl := range blocks {
		mean := bl.sum / bl.w
		for k := 0; k < bl.count; k++ {
			ys[i] = mean
			i++
		}
	}
}

// At predicts the default fraction at severity x by linear interpolation,
// clamping outside the observed range (the curve never extrapolates above
// the largest observed fraction — a deliberate, conservative choice).
func (c *Curve) At(x float64) float64 {
	if x <= c.xs[0] {
		return c.ys[0]
	}
	n := len(c.xs)
	if x >= c.xs[n-1] {
		return c.ys[n-1]
	}
	i := sort.SearchFloat64s(c.xs, x)
	// xs[i-1] < x ≤ xs[i]
	x0, x1 := c.xs[i-1], c.xs[i]
	y0, y1 := c.ys[i-1], c.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Knots returns copies of the fitted curve's support points.
func (c *Curve) Knots() (xs, ys []float64) {
	xs = append(xs, c.xs...)
	ys = append(ys, c.ys...)
	return xs, ys
}

// SeverityIndex computes the severity index of a policy against a surveyed
// preference sample: the mean Violation_i (Eq. 15) over the sample. The
// sample stands in for the unknown full population (Sec. 10's survey
// route); only its relative ordering across policies matters for the fit.
func SeverityIndex(policy *privacy.HousePolicy, attrSens privacy.AttributeSensitivities,
	opts core.Options, sample []*privacy.Prefs) (float64, error) {
	if len(sample) == 0 {
		return 0, fmt.Errorf("estimation: empty survey sample")
	}
	assessor, err := core.NewAssessor(policy, attrSens, opts)
	if err != nil {
		return 0, err
	}
	var total float64
	var sc core.Scratch
	for _, p := range sample {
		total += assessor.AssessTotals(p, nil, &sc).Violation
	}
	return total / float64(len(sample)), nil
}

// History accumulates (policy, observed default fraction) pairs and fits
// the curve on demand.
type History struct {
	attrSens privacy.AttributeSensitivities
	opts     core.Options
	sample   []*privacy.Prefs
	obs      []Observation
}

// NewHistory builds a history around a fixed survey sample.
func NewHistory(attrSens privacy.AttributeSensitivities, opts core.Options, sample []*privacy.Prefs) (*History, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("estimation: empty survey sample")
	}
	return &History{attrSens: attrSens, opts: opts, sample: sample}, nil
}

// Observe records a historical policy with its observed default fraction.
func (h *History) Observe(policy *privacy.HousePolicy, defaultFrac float64) error {
	s, err := SeverityIndex(policy, h.attrSens, h.opts, h.sample)
	if err != nil {
		return err
	}
	if defaultFrac < 0 || defaultFrac > 1 {
		return fmt.Errorf("estimation: default fraction %g outside [0, 1]", defaultFrac)
	}
	h.obs = append(h.obs, Observation{Severity: s, DefaultFrac: defaultFrac})
	return nil
}

// Len returns the number of observations recorded.
func (h *History) Len() int { return len(h.obs) }

// Fit fits the monotone curve over the recorded history.
func (h *History) Fit() (*Curve, error) { return Fit(h.obs) }

// Predict estimates the default fraction a candidate policy would cause.
func (h *History) Predict(policy *privacy.HousePolicy) (float64, error) {
	curve, err := h.Fit()
	if err != nil {
		return 0, err
	}
	s, err := SeverityIndex(policy, h.attrSens, h.opts, h.sample)
	if err != nil {
		return 0, err
	}
	return curve.At(s), nil
}
