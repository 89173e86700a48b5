// Package generalize provides value-generalization hierarchies — the
// concrete machinery behind the taxonomy's granularity dimension — plus the
// release-time anonymity baselines the paper's related-work section
// contrasts with (k-anonymity via full-domain generalization, l-diversity).
//
// A Hierarchy maps a value to progressively coarser forms. Level 0 is the
// exact value ("specific" on the granularity scale); the highest level is
// full suppression ("none"). The PPDB uses hierarchies to degrade query
// answers to the granularity a policy allows; the k-anonymity search uses
// them to anonymize a release.
package generalize

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/relational"
)

// Hierarchy generalizes values of one attribute. Implementations must be
// deterministic: the same value at the same level always yields the same
// output, so equivalence classes are well defined.
type Hierarchy interface {
	// Levels returns the number of generalization levels, ≥ 1. Level 0 is
	// the identity; Levels()-1 is full suppression.
	Levels() int
	// Generalize maps v to its form at the given level. Values outside the
	// hierarchy's domain are suppressed. NULL passes through unchanged.
	Generalize(v relational.Value, level int) relational.Value
}

// Suppressed is the output of full suppression.
var Suppressed = relational.Text("*")

// clampLevel bounds lv into [0, max].
func clampLevel(lv, max int) int {
	if lv < 0 {
		return 0
	}
	if lv > max {
		return max
	}
	return lv
}

// NumericHierarchy generalizes numbers into progressively wider ranges.
// Level 0 is the value itself; level k (1 ≤ k < Levels-1) buckets into
// ranges of Width × Factor^(k-1); the last level suppresses. Bucket labels
// render as "[lo-hi)".
type NumericHierarchy struct {
	// Width is the bucket width at level 1. Must be > 0.
	Width float64
	// Factor multiplies the width per additional level. Must be > 1.
	Factor float64
	// Depth is the number of range levels (excluding identity and
	// suppression). Total Levels = Depth + 2.
	Depth int
}

// NewNumericHierarchy validates and returns a numeric hierarchy.
func NewNumericHierarchy(width, factor float64, depth int) (*NumericHierarchy, error) {
	if width <= 0 {
		return nil, fmt.Errorf("generalize: width %g must be positive", width)
	}
	if factor <= 1 {
		return nil, fmt.Errorf("generalize: factor %g must exceed 1", factor)
	}
	if depth < 1 {
		return nil, fmt.Errorf("generalize: depth %d must be at least 1", depth)
	}
	return &NumericHierarchy{Width: width, Factor: factor, Depth: depth}, nil
}

// Levels implements Hierarchy.
func (h *NumericHierarchy) Levels() int { return h.Depth + 2 }

// Generalize implements Hierarchy.
func (h *NumericHierarchy) Generalize(v relational.Value, level int) relational.Value {
	if v.IsNull() {
		return v
	}
	level = clampLevel(level, h.Levels()-1)
	if level == 0 {
		return v
	}
	if level == h.Levels()-1 {
		return Suppressed
	}
	f, ok := v.AsFloat()
	if !ok {
		return Suppressed
	}
	w := h.Width * math.Pow(h.Factor, float64(level-1))
	lo := math.Floor(f/w) * w
	return relational.Text(formatRange(lo, lo+w))
}

// formatRange renders the bucket label "[lo-hi)" in a stack buffer, so the
// label string is a generalized cell's only allocation.
func formatRange(lo, hi float64) string {
	var buf [64]byte // two shortest float64s (≤ 24 bytes each) and "[-)"
	b := append(buf[:0], '[')
	b = appendTrimmed(b, lo)
	b = append(b, '-')
	b = appendTrimmed(b, hi)
	return string(append(b, ')'))
}

// appendTrimmed appends f as an integer when it is exactly integral and
// below 1e15, else in shortest %g form.
func appendTrimmed(b []byte, f float64) []byte {
	//lint:ignore floatcmp rendering decision: only exactly-integral floats print without a fraction
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.AppendInt(b, int64(f), 10)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// CategoryHierarchy generalizes categorical values through an explicit tree:
// each value maps to its parent, parents to grandparents, and so on up to a
// root. Level k replaces a value by its k'th ancestor (staying at the root);
// the final level suppresses.
type CategoryHierarchy struct {
	parent map[string]string
	depth  int
}

// NewCategoryHierarchy builds a hierarchy from child → parent edges. The
// depth is the longest chain length; cycles are rejected.
func NewCategoryHierarchy(parents map[string]string) (*CategoryHierarchy, error) {
	norm := make(map[string]string, len(parents))
	for c, p := range parents {
		norm[strings.ToLower(c)] = strings.ToLower(p)
	}
	depth := 0
	for c := range norm {
		d := 0
		seen := map[string]bool{c: true}
		cur := c
		for {
			p, ok := norm[cur]
			if !ok {
				break
			}
			if seen[p] {
				return nil, fmt.Errorf("generalize: cycle through %q", p)
			}
			seen[p] = true
			cur = p
			d++
		}
		if d > depth {
			depth = d
		}
	}
	if depth == 0 {
		return nil, fmt.Errorf("generalize: hierarchy has no edges")
	}
	return &CategoryHierarchy{parent: norm, depth: depth}, nil
}

// Levels implements Hierarchy: identity + depth ancestor levels +
// suppression.
func (h *CategoryHierarchy) Levels() int { return h.depth + 2 }

// Generalize implements Hierarchy.
func (h *CategoryHierarchy) Generalize(v relational.Value, level int) relational.Value {
	if v.IsNull() {
		return v
	}
	level = clampLevel(level, h.Levels()-1)
	if level == 0 {
		return v
	}
	if level == h.Levels()-1 {
		return Suppressed
	}
	s, ok := v.AsText()
	if !ok {
		return Suppressed
	}
	cur := strings.ToLower(s)
	for i := 0; i < level; i++ {
		p, ok := h.parent[cur]
		if !ok {
			break // at (or past) the root: stay
		}
		cur = p
	}
	return relational.Text(cur)
}

// SuppressionHierarchy has exactly two levels: the value and "*". It models
// attributes with no meaningful intermediate granularity (identifiers).
type SuppressionHierarchy struct{}

// Levels implements Hierarchy.
func (SuppressionHierarchy) Levels() int { return 2 }

// Generalize implements Hierarchy.
func (SuppressionHierarchy) Generalize(v relational.Value, level int) relational.Value {
	if v.IsNull() || level <= 0 {
		return v
	}
	return Suppressed
}

// RoundingHierarchy generalizes numbers by rounding to multiples: level k
// rounds to the nearest multiple of Steps[k-1]; the final level suppresses.
// This models the paper's weight example — "a weight range rather than the
// actual weight" — when ranges should stay numeric.
type RoundingHierarchy struct {
	Steps []float64 // increasing positive step sizes
}

// NewRoundingHierarchy validates step sizes (positive, increasing).
func NewRoundingHierarchy(steps ...float64) (*RoundingHierarchy, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("generalize: need at least one step")
	}
	prev := 0.0
	for _, s := range steps {
		if s <= prev {
			return nil, fmt.Errorf("generalize: steps must be positive and increasing, got %v", steps)
		}
		prev = s
	}
	return &RoundingHierarchy{Steps: steps}, nil
}

// Levels implements Hierarchy.
func (h *RoundingHierarchy) Levels() int { return len(h.Steps) + 2 }

// Generalize implements Hierarchy.
func (h *RoundingHierarchy) Generalize(v relational.Value, level int) relational.Value {
	if v.IsNull() {
		return v
	}
	level = clampLevel(level, h.Levels()-1)
	if level == 0 {
		return v
	}
	if level == h.Levels()-1 {
		return Suppressed
	}
	f, ok := v.AsFloat()
	if !ok {
		return Suppressed
	}
	step := h.Steps[level-1]
	return relational.Float(math.Round(f/step) * step)
}
