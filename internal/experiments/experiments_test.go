package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestTable1Golden is the repository's headline check: the reproduction
// matches the paper's published Table 1 numbers exactly.
func TestTable1Golden(t *testing.T) {
	r := Table1()
	if !r.Matches() {
		t.Fatalf("Table 1 reproduction diverges from the paper: %+v", r)
	}
	if r.PW != 2.0/3.0 {
		t.Errorf("P(W) = %g", r.PW)
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Alice", "Ted", "Bob", "60", "80", "0.3333"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1Cases(t *testing.T) {
	cases := Figure1()
	if len(cases) != 3+8 {
		t.Fatalf("cases = %d, want 11", len(cases))
	}
	// Panels a/b/c have 0/1/2 exceeded dimensions respectively.
	if len(cases[0].ExceededDim) != 0 || cases[0].Violated {
		t.Errorf("panel a = %+v", cases[0])
	}
	if len(cases[1].ExceededDim) != 1 || !cases[1].Violated {
		t.Errorf("panel b = %+v", cases[1])
	}
	if len(cases[2].ExceededDim) != 2 || !cases[2].Violated {
		t.Errorf("panel c = %+v", cases[2])
	}
	// Lattice cases: violated iff the mask is non-empty, and the exceeded
	// set matches the mask size.
	for i, c := range cases[3:] {
		if got := len(c.ExceededDim); got != popcount(i) {
			t.Errorf("lattice case %d: exceeded %d dims, want %d", i, got, popcount(i))
		}
		if c.Violated != (i != 0) {
			t.Errorf("lattice case %d: violated = %v", i, c.Violated)
		}
	}
	var buf bytes.Buffer
	if err := FprintFigure1(&buf, cases); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "two-dimension") {
		t.Error("Figure 1 output incomplete")
	}
}

func popcount(v int) int {
	c := 0
	for v != 0 {
		c += v & 1
		v >>= 1
	}
	return c
}

func TestFigure2(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"HP^weight", "ProviderPref_t1^weight", "P(W)", "P(Default)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 output missing %q", want)
		}
	}
	// T lists both providers' own tuples; the research read of it is
	// enforced per datum, and neither provider states a preference on the
	// provider column, so the implicit zero suppresses both rows.
	for _, want := range []string{"\nt1 ", "\nt2 "} {
		if !strings.Contains(out, want) {
			t.Errorf("T is missing the row starting %q", strings.TrimSpace(want))
		}
	}
	if !strings.Contains(out, "0 rows returned, 2 suppressed") {
		t.Error("expected the enforced research read to suppress both rows")
	}
}

func TestExpansionShape(t *testing.T) {
	cfg := ExpansionConfig{N: 1500, Seed: 2011, BaseUtility: 10, StepUtility: 2, Steps: 8}
	r, err := Expansion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != cfg.Steps+1 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Paper's qualitative claim (Sec. 9): the optimum is interior — some
	// widening pays, unbounded widening does not.
	if r.Optimal <= 0 {
		t.Errorf("optimal step = %d, want > 0 (some widening should pay)", r.Optimal)
	}
	last := r.Points[len(r.Points)-1]
	best := r.Points[r.Optimal]
	if last.UtilityFuture >= best.UtilityFuture {
		t.Errorf("utility should decline past the optimum: last %g ≥ best %g",
			last.UtilityFuture, best.UtilityFuture)
	}
	// N_future is non-increasing.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].NFuture > r.Points[i-1].NFuture {
			t.Errorf("NFuture grew at step %d", i)
		}
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "optimal") {
		t.Error("expansion output missing optimal marker")
	}
}

func TestAccumulation(t *testing.T) {
	cfg := ExpansionConfig{N: 1000, Seed: 7, BaseUtility: 10, StepUtility: 2, Steps: 6}
	r, err := Accumulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CumulativeDefaults) != len(r.Points) {
		t.Fatal("series length mismatch")
	}
	// Cumulative defaults are non-decreasing and eventually positive.
	for i := 1; i < len(r.CumulativeDefaults); i++ {
		if r.CumulativeDefaults[i] < r.CumulativeDefaults[i-1] {
			t.Error("cumulative defaults decreased")
		}
	}
	if r.CumulativeDefaults[len(r.CumulativeDefaults)-1] == 0 {
		t.Error("aggressive widening should cause defaults")
	}
	// The threshold ECDF covers the population.
	if r.ThresholdECDF.Len() != cfg.N {
		t.Errorf("ECDF over %d thresholds", r.ThresholdECDF.Len())
	}
	if r.ThresholdSummary.Median <= 0 {
		t.Error("thresholds must be positive")
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorConvergence(t *testing.T) {
	r, err := Estimator(1000, 5, []int{10, 1000, 100000})
	if err != nil {
		t.Fatal(err)
	}
	if r.ExactPW <= 0 || r.ExactPW >= 1 {
		t.Fatalf("exact P(W) = %g should be interior", r.ExactPW)
	}
	// Error at τ=100000 should be small and the CI should cover the truth.
	last := r.Points[len(r.Points)-1]
	if last.ErrPW > 0.01 {
		t.Errorf("estimator error at τ=100k = %g", last.ErrPW)
	}
	if r.ExactPW < last.PW.Lo-0.01 || r.ExactPW > last.PW.Hi+0.01 {
		t.Errorf("truth %g outside CI [%g, %g]", r.ExactPW, last.PW.Lo, last.PW.Hi)
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaSweep(t *testing.T) {
	r, err := AlphaSweep(1000, 3, 5, DefaultAlphas())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// P(W) non-decreasing in policy width.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].PW < r.Points[i-1].PW-1e-12 {
			t.Errorf("P(W) decreased at width %d", i)
		}
	}
	// Verdict consistency: certified at α implies certified at any larger α.
	for _, p := range r.Points {
		for i := 1; i < len(r.Alphas); i++ {
			if p.Verdicts[r.Alphas[i-1]] && !p.Verdicts[r.Alphas[i]] {
				t.Errorf("verdicts inconsistent at width %d", p.PolicyWidth)
			}
		}
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineContrast(t *testing.T) {
	r, err := BaselineContrast(400, 11, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	// Internal metrics respond to widening…
	if last.PW <= first.PW {
		t.Errorf("P(W) should rise with widening: %g → %g", first.PW, last.PW)
	}
	// …while the release metrics are constant (the release happened once).
	for _, p := range r.Points {
		if p.KAnonK != first.KAnonK || math.Abs(p.PrecisionLoss-first.PrecisionLoss) > 1e-12 {
			t.Error("release-time metrics must not change with policy widening")
		}
	}
	if first.KAnonK < r.K {
		t.Errorf("release k = %d below requested %d", first.KAnonK, r.K)
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations(800, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base := r.Rows[0]
	noImplicit := r.Rows[1]
	lattice := r.Rows[2]
	unweighted := r.Rows[3]
	// Removing the implicit-zero rule can only reduce violations.
	if noImplicit.PW > base.PW {
		t.Errorf("no-implicit-zero P(W) %g > base %g", noImplicit.PW, base.PW)
	}
	// Lattice matching lets a general consent cover the new specialized
	// purpose, so it can only reduce (or keep) P(W).
	if lattice.PW > base.PW {
		t.Errorf("lattice P(W) %g > base %g", lattice.PW, base.PW)
	}
	// Unit weighting preserves the violation predicate (w_i) but changes
	// severity: PW is unchanged, Violations differ.
	if unweighted.PW != base.PW {
		t.Errorf("unit weighting must not change P(W): %g vs %g", unweighted.PW, base.PW)
	}
	if unweighted.TotalViolations == base.TotalViolations {
		t.Error("unit weighting should change total severity")
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTable(&buf, []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing rule line")
	}
}
