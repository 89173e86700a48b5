package generalize

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/relational"
)

func TestNumericHierarchy(t *testing.T) {
	h, err := NewNumericHierarchy(5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 5 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	v := relational.Float(72)
	if got := h.Generalize(v, 0); !relational.Equal(got, v) {
		t.Errorf("level 0 = %s", got)
	}
	if got := h.Generalize(v, 1); got.Display() != "[70-75)" {
		t.Errorf("level 1 = %s", got.Display())
	}
	if got := h.Generalize(v, 2); got.Display() != "[70-80)" {
		t.Errorf("level 2 = %s", got.Display())
	}
	if got := h.Generalize(v, 3); got.Display() != "[60-80)" {
		t.Errorf("level 3 = %s", got.Display())
	}
	if got := h.Generalize(v, 4); !relational.Equal(got, Suppressed) {
		t.Errorf("top level = %s, want *", got)
	}
	// Out-of-range levels clamp.
	if got := h.Generalize(v, 99); !relational.Equal(got, Suppressed) {
		t.Errorf("clamped level = %s", got)
	}
	if got := h.Generalize(v, -3); !relational.Equal(got, v) {
		t.Errorf("negative level = %s", got)
	}
	// Int input works; text input suppresses; NULL passes through.
	if got := h.Generalize(relational.Int(72), 1); got.Display() != "[70-75)" {
		t.Errorf("int input = %s", got.Display())
	}
	if got := h.Generalize(relational.Text("x"), 1); !relational.Equal(got, Suppressed) {
		t.Errorf("text input = %s", got)
	}
	if got := h.Generalize(relational.Null(), 3); !got.IsNull() {
		t.Errorf("NULL should pass through, got %s", got)
	}
}

// fmtRange is the label form NumericHierarchy printed through fmt; the
// strconv form must reproduce it byte for byte.
func fmtRange(lo, hi float64) string {
	trim := func(f float64) string {
		//lint:ignore floatcmp mirrors the rendering rule under test: only exactly-integral floats print without a fraction
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return fmt.Sprintf("%d", int64(f))
		}
		return fmt.Sprintf("%g", f)
	}
	return fmt.Sprintf("[%s-%s)", trim(lo), trim(hi))
}

// TestNumericLabelsMatchFmt pins the bucket labels to their fmt form over
// negatives, fractions, -0, the 1e15 integral cut-over, NaN, ±Inf and
// extreme magnitudes, at several widths and factors.
func TestNumericLabelsMatchFmt(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 72, -72, 72.5, -72.5, 0.1, -0.3, 1.0 / 3, 2.5e-7,
		1e15 - 1, 1e15, 1e15 + 2, -1e15, -1e15 + 1, 123456789012345.6, 1e21, -3.7e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, lo := range values {
		for _, hi := range values {
			if got, want := formatRange(lo, hi), fmtRange(lo, hi); got != want {
				t.Errorf("formatRange(%v, %v) = %q, want %q", lo, hi, got, want)
			}
		}
	}
	for _, hc := range []struct{ width, factor float64 }{{5, 2}, {0.1, 3}, {2.5, 1.5}, {1e-3, 10}, {1e14, 2}} {
		h, err := NewNumericHierarchy(hc.width, hc.factor, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range values {
			for level := 1; level < h.Levels()-1; level++ {
				w := h.Width * math.Pow(h.Factor, float64(level-1))
				lo := math.Floor(v/w) * w
				if got, want := h.Generalize(relational.Float(v), level).Display(), fmtRange(lo, lo+w); got != want {
					t.Errorf("width %g factor %g level %d: Generalize(%v) = %q, want %q",
						hc.width, hc.factor, level, v, got, want)
				}
			}
		}
	}
}

// TestNumericGeneralizeAllocs pins a generalized cell to one allocation:
// its label string.
func TestNumericGeneralizeAllocs(t *testing.T) {
	h, err := NewNumericHierarchy(5, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := relational.Float(-72.25)
	for level := 1; level < h.Levels()-1; level++ {
		if allocs := testing.AllocsPerRun(100, func() { _ = h.Generalize(v, level) }); allocs > 1 {
			t.Errorf("level %d: Generalize allocates %.1f objects, want at most 1", level, allocs)
		}
	}
}

func TestNumericHierarchyErrors(t *testing.T) {
	if _, err := NewNumericHierarchy(0, 2, 1); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewNumericHierarchy(5, 1, 1); err == nil {
		t.Error("factor 1 should fail")
	}
	if _, err := NewNumericHierarchy(5, 2, 0); err == nil {
		t.Error("zero depth should fail")
	}
}

// Property: generalization is deterministic and level-monotone in class
// coarseness — two values in the same bucket at level L stay together at
// every higher range level.
func TestNumericBucketsNest(t *testing.T) {
	h, _ := NewNumericHierarchy(5, 2, 4)
	f := func(a, b int16, lvRaw uint8) bool {
		lv := 1 + int(lvRaw)%(h.Levels()-2) // a range level
		va, vb := relational.Float(float64(a)), relational.Float(float64(b))
		if h.Generalize(va, lv).Display() != h.Generalize(vb, lv).Display() {
			return true // not in same bucket: nothing to check
		}
		for l := lv + 1; l < h.Levels()-1; l++ {
			if h.Generalize(va, l).Display() != h.Generalize(vb, l).Display() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCategoryHierarchy(t *testing.T) {
	h, err := NewCategoryHierarchy(map[string]string{
		"calgary":  "alberta",
		"edmonton": "alberta",
		"alberta":  "canada",
		"toronto":  "ontario",
		"ontario":  "canada",
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 4 { // identity + 2 ancestor levels + suppression
		t.Fatalf("Levels = %d", h.Levels())
	}
	v := relational.Text("Calgary")
	if got := h.Generalize(v, 1); got.Display() != "alberta" {
		t.Errorf("level 1 = %s", got.Display())
	}
	if got := h.Generalize(v, 2); got.Display() != "canada" {
		t.Errorf("level 2 = %s", got.Display())
	}
	if got := h.Generalize(v, 3); !relational.Equal(got, Suppressed) {
		t.Errorf("level 3 = %s", got)
	}
	// Value already at root stays there below suppression.
	if got := h.Generalize(relational.Text("canada"), 2); got.Display() != "canada" {
		t.Errorf("root stays: %s", got.Display())
	}
	// Unknown category stays itself at ancestor levels (treated as root).
	if got := h.Generalize(relational.Text("mars"), 1); got.Display() != "mars" {
		t.Errorf("unknown category = %s", got.Display())
	}
	// Non-text suppresses at range levels.
	if got := h.Generalize(relational.Int(5), 1); !relational.Equal(got, Suppressed) {
		t.Errorf("non-text = %s", got)
	}
}

func TestCategoryHierarchyErrors(t *testing.T) {
	if _, err := NewCategoryHierarchy(map[string]string{}); err == nil {
		t.Error("empty hierarchy should fail")
	}
	if _, err := NewCategoryHierarchy(map[string]string{"a": "b", "b": "a"}); err == nil {
		t.Error("cycle should fail")
	}
}

func TestSuppressionHierarchy(t *testing.T) {
	var h SuppressionHierarchy
	if h.Levels() != 2 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	v := relational.Text("ssn-123")
	if got := h.Generalize(v, 0); !relational.Equal(got, v) {
		t.Errorf("level 0 = %s", got)
	}
	if got := h.Generalize(v, 1); !relational.Equal(got, Suppressed) {
		t.Errorf("level 1 = %s", got)
	}
	if got := h.Generalize(relational.Null(), 1); !got.IsNull() {
		t.Errorf("NULL = %s", got)
	}
}

func TestRoundingHierarchy(t *testing.T) {
	h, err := NewRoundingHierarchy(5, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 5 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	v := relational.Float(72.4)
	checks := map[int]float64{1: 70, 2: 70, 3: 75}
	for lv, want := range checks {
		got, _ := h.Generalize(v, lv).AsFloat()
		if got != want {
			t.Errorf("level %d = %g, want %g", lv, got, want)
		}
	}
	if got := h.Generalize(v, 4); !relational.Equal(got, Suppressed) {
		t.Errorf("top = %s", got)
	}
	if _, err := NewRoundingHierarchy(); err == nil {
		t.Error("no steps should fail")
	}
	if _, err := NewRoundingHierarchy(5, 5); err == nil {
		t.Error("non-increasing steps should fail")
	}
	if _, err := NewRoundingHierarchy(-1); err == nil {
		t.Error("negative step should fail")
	}
}
