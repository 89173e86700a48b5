package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/privacy"
)

func TestDiff(t *testing.T) {
	cases := []struct {
		pref, pol privacy.Level
		want      int
	}{
		{0, 0, 0}, {2, 2, 0}, {3, 1, 0}, {1, 3, 2}, {0, 5, 5},
	}
	for _, c := range cases {
		if got := Diff(c.pref, c.pol); got != c.want {
			t.Errorf("Diff(%d, %d) = %d, want %d", c.pref, c.pol, got, c.want)
		}
	}
}

func TestComp(t *testing.T) {
	pref := privacy.Tuple{Purpose: "research", Visibility: 1}
	pol := privacy.Tuple{Purpose: "research", Visibility: 2}
	if !Comp("weight", pref, "Weight", pol, nil) {
		t.Error("same attr (case-insensitive) + same purpose should be comparable")
	}
	if Comp("weight", pref, "age", pol, nil) {
		t.Error("different attributes are incomparable (Eq. 13 first case)")
	}
	other := pol
	other.Purpose = "marketing"
	if Comp("weight", pref, "weight", other, nil) {
		t.Error("different purposes are incomparable (Eq. 13 second case)")
	}
}

func TestConfZeroWhenIncomparable(t *testing.T) {
	pref := privacy.Tuple{Purpose: "a", Visibility: 0}
	pol := privacy.Tuple{Purpose: "b", Visibility: 5}
	if c := Conf("x", pref, "x", pol, 4, privacy.UnitSensitivity, nil); c != 0 {
		t.Errorf("incomparable conf = %g, want 0", c)
	}
}

// table1Fixture reproduces the Sec. 8 worked example. The house policy on
// Weight is ⟨pr, v, g, r⟩ with v=2, g=2, r=2 on the default scales;
// Σ^Weight = 4. Age never violates anyone (the paper's simplifying
// assumption), arranged by giving everyone maximal Age preferences.
func table1Fixture() (*Assessor, map[string]*privacy.Prefs) {
	const pr = privacy.Purpose("research")
	v, g, r := privacy.Level(2), privacy.Level(2), privacy.Level(2)

	hp := privacy.NewHousePolicy("table1")
	hp.Add("Weight", privacy.Tuple{Purpose: pr, Visibility: v, Granularity: g, Retention: r})
	hp.Add("Age", privacy.Tuple{Purpose: pr, Visibility: 1, Granularity: 1, Retention: 1})

	sigma := privacy.AttributeSensitivities{}
	sigma.Set("Weight", 4)
	sigma.Set("Age", 1)

	maxAge := privacy.Tuple{Purpose: pr, Visibility: 4, Granularity: 3, Retention: 5}

	alice := privacy.NewPrefs("alice", 10)
	alice.Add("Weight", privacy.Tuple{Purpose: pr, Visibility: v + 2, Granularity: g + 1, Retention: r + 3})
	alice.SetSensitivity("Weight", privacy.Sensitivity{Value: 1, Visibility: 1, Granularity: 2, Retention: 1})
	alice.Add("Age", maxAge)

	ted := privacy.NewPrefs("ted", 50)
	ted.Add("Weight", privacy.Tuple{Purpose: pr, Visibility: v + 2, Granularity: g - 1, Retention: r + 2})
	ted.SetSensitivity("Weight", privacy.Sensitivity{Value: 3, Visibility: 1, Granularity: 5, Retention: 2})
	ted.Add("Age", maxAge)

	bob := privacy.NewPrefs("bob", 100)
	bob.Add("Weight", privacy.Tuple{Purpose: pr, Visibility: v, Granularity: g - 1, Retention: r - 1})
	bob.SetSensitivity("Weight", privacy.Sensitivity{Value: 4, Visibility: 1, Granularity: 3, Retention: 2})
	bob.Add("Age", maxAge)

	a, err := NewAssessor(hp, sigma, Options{})
	if err != nil {
		panic(err)
	}
	return a, map[string]*privacy.Prefs{"alice": alice, "ted": ted, "bob": bob}
}

// TestTable1 is the golden reproduction of the paper's Table 1 and
// Eqs. 19-24: conf values 0 / 60 / 80, w = 0/1/1, defaults 0/1/0,
// P(Default) = 1/3.
func TestTable1(t *testing.T) {
	a, provs := table1Fixture()

	want := map[string]struct {
		conf     float64
		violated bool
		defaults bool
	}{
		"alice": {0, false, false},
		"ted":   {60, true, true},
		"bob":   {80, true, false},
	}
	for name, w := range want {
		rep := a.AssessProvider(provs[name])
		if rep.Violation != w.conf {
			t.Errorf("%s Violation = %g, want %g", name, rep.Violation, w.conf)
		}
		if rep.Violated != w.violated {
			t.Errorf("%s w_i = %v, want %v", name, rep.Violated, w.violated)
		}
		if rep.Defaults != w.defaults {
			t.Errorf("%s default_i = %v, want %v", name, rep.Defaults, w.defaults)
		}
	}

	pop := []*privacy.Prefs{provs["alice"], provs["ted"], provs["bob"]}
	rep := a.AssessPopulation(pop)
	if rep.TotalViolations != 140 {
		t.Errorf("Violations (Eq. 16) = %g, want 140", rep.TotalViolations)
	}
	if got, want := rep.PDefault, 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("P(Default) = %g, want 1/3 (Eq. 24)", got)
	}
	if got, want := rep.PW, 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("P(W) = %g, want 2/3", got)
	}
	if rep.ViolatedCount != 2 || rep.DefaultCount != 1 || rep.N != 3 {
		t.Errorf("counts wrong: %+v", rep)
	}
}

// TestTable1Dimensions checks the per-dimension decomposition: Ted is
// violated along granularity only; Bob along granularity and retention
// (the paper's narrative before Eq. 19).
func TestTable1Dimensions(t *testing.T) {
	a, provs := table1Fixture()

	ted := a.AssessProvider(provs["ted"])
	if len(ted.Pairs) != 1 {
		t.Fatalf("ted pairs = %d, want 1", len(ted.Pairs))
	}
	if len(ted.Pairs[0].Dims) != 1 || ted.Pairs[0].Dims[0].Dimension != privacy.DimGranularity {
		t.Errorf("ted dims = %+v, want granularity only", ted.Pairs[0].Dims)
	}
	if ted.Pairs[0].Dims[0].Severity != 60 {
		t.Errorf("ted granularity severity = %g, want 60 (1×4×3×5)", ted.Pairs[0].Dims[0].Severity)
	}

	bob := a.AssessProvider(provs["bob"])
	if len(bob.Pairs) != 1 {
		t.Fatalf("bob pairs = %d, want 1", len(bob.Pairs))
	}
	dims := bob.Pairs[0].Dims
	if len(dims) != 2 {
		t.Fatalf("bob dims = %+v, want granularity + retention", dims)
	}
	sev := map[privacy.Dimension]float64{}
	for _, d := range dims {
		sev[d.Dimension] = d.Severity
	}
	if sev[privacy.DimGranularity] != 48 { // 1×4×4×3
		t.Errorf("bob granularity severity = %g, want 48", sev[privacy.DimGranularity])
	}
	if sev[privacy.DimRetention] != 32 { // 1×4×4×2
		t.Errorf("bob retention severity = %g, want 32", sev[privacy.DimRetention])
	}
}

func TestConfMatchesAssessor(t *testing.T) {
	a, provs := table1Fixture()
	pol, _ := a.Policy().Find("weight", "research")
	ted := provs["ted"]
	pref, _ := ted.Find("weight", "research")
	c := Conf("weight", pref, "weight", pol, 4, ted.Sensitivity("weight", "research"), nil)
	if c != 60 {
		t.Errorf("Conf = %g, want 60 (Eq. 20)", c)
	}
}

func TestImplicitZeroPurpose(t *testing.T) {
	hp := privacy.NewHousePolicy("v1")
	hp.Add("x", privacy.Tuple{Purpose: "marketing", Visibility: 2, Granularity: 1, Retention: 1})
	a, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Provider never mentioned marketing → implicit ⟨pr,0,0,0⟩ → violated.
	p := privacy.NewPrefs("p", 100)
	p.Add("x", privacy.Tuple{Purpose: "research", Visibility: 4, Granularity: 3, Retention: 5})
	if !a.Violated(p) {
		t.Error("unanticipated purpose must violate under the Sec. 5 rule")
	}
	rep := a.AssessProvider(p)
	if len(rep.Pairs) != 1 || !rep.Pairs[0].ImplicitZero {
		t.Errorf("implicit-zero pair not flagged: %+v", rep.Pairs)
	}
	// Severity: overshoot (2+1+1)=4 with unit weights.
	if rep.Violation != 4 {
		t.Errorf("implicit-zero severity = %g, want 4", rep.Violation)
	}

	// Ablation: disabling the rule removes the violation.
	a2, _ := NewAssessor(hp, nil, Options{DisableImplicitZero: true})
	if a2.Violated(p) {
		t.Error("ablated assessor should not flag the unanticipated purpose")
	}
}

func TestLatticeMatcherAssessment(t *testing.T) {
	l := privacy.NewLattice()
	if err := l.AddEdge("marketing", "email-marketing"); err != nil {
		t.Fatal(err)
	}
	hp := privacy.NewHousePolicy("v1")
	hp.Add("x", privacy.Tuple{Purpose: "email-marketing", Visibility: 2, Granularity: 1, Retention: 1})

	p := privacy.NewPrefs("p", 100)
	p.Add("x", privacy.Tuple{Purpose: "marketing", Visibility: 3, Granularity: 3, Retention: 3})

	// Equality matching: email-marketing unanticipated → violation.
	eq, _ := NewAssessor(hp, nil, Options{})
	if !eq.Violated(p) {
		t.Error("equality matcher should flag unanticipated specialization")
	}
	// Lattice matching: the general consent covers the specialization and
	// bounds the policy → no violation.
	lat, _ := NewAssessor(hp, nil, Options{Matcher: l})
	if lat.Violated(p) {
		t.Error("lattice matcher should accept covered specialization")
	}
}

func TestAlphaPPDB(t *testing.T) {
	if !IsAlphaPPDB(0.1, 0.1) {
		t.Error("P(W) = α should qualify (Eq. 9 is ≤)")
	}
	if IsAlphaPPDB(0.2, 0.1) {
		t.Error("P(W) > α should not qualify")
	}
	a, provs := table1Fixture()
	pop := []*privacy.Prefs{provs["alice"], provs["ted"], provs["bob"]}
	if got := a.MinAlpha(pop); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("MinAlpha = %g, want 2/3", got)
	}
}

func TestEmptyPopulation(t *testing.T) {
	a, _ := table1Fixture()
	rep := a.AssessPopulation(nil)
	if rep.PW != 0 || rep.PDefault != 0 || rep.N != 0 {
		t.Errorf("empty population should be all-zero: %+v", rep)
	}
}

func TestViolatedDimensionsHistogram(t *testing.T) {
	a, provs := table1Fixture()
	pop := []*privacy.Prefs{provs["alice"], provs["ted"], provs["bob"]}
	hist := a.ViolatedDimensionsHistogram(pop)
	if hist[privacy.DimGranularity] != 2 { // Ted and Bob
		t.Errorf("granularity count = %d, want 2", hist[privacy.DimGranularity])
	}
	if hist[privacy.DimRetention] != 1 { // Bob
		t.Errorf("retention count = %d, want 1", hist[privacy.DimRetention])
	}
	if hist[privacy.DimVisibility] != 0 {
		t.Errorf("visibility count = %d, want 0", hist[privacy.DimVisibility])
	}
}

func TestTopViolated(t *testing.T) {
	a, provs := table1Fixture()
	pop := []*privacy.Prefs{provs["alice"], provs["ted"], provs["bob"]}
	reps := a.AssessPopulation(pop).Providers
	top := TopViolated(reps, 2)
	if len(top) != 2 || top[0].Provider != "bob" || top[1].Provider != "ted" {
		t.Errorf("TopViolated = %+v", top)
	}
	all := TopViolated(reps, 10)
	if len(all) != 3 || all[2].Provider != "alice" {
		t.Errorf("TopViolated overflow = %+v", all)
	}
	if reps[0].Provider != "alice" || reps[2].Provider != "bob" {
		t.Errorf("TopViolated reordered its input: %+v", reps)
	}
}

func TestNewAssessorErrors(t *testing.T) {
	if _, err := NewAssessor(nil, nil, Options{}); err == nil {
		t.Error("nil policy should be rejected")
	}
	bad := privacy.AttributeSensitivities{"x": -1}
	if _, err := NewAssessor(privacy.NewHousePolicy("p"), bad, Options{}); err == nil {
		t.Error("negative Σ should be rejected")
	}
}

// Property: severity is monotone under policy widening — widening any
// dimension of any policy tuple never decreases Violation_i (sensitivities
// are non-negative). This is the monotonicity the Sec. 9 economics relies on.
func TestSeverityMonotoneUnderWidening(t *testing.T) {
	f := func(pv, pg, prr, hv, hg, hr uint8, dim uint8, delta uint8) bool {
		pref := privacy.Tuple{Purpose: "p",
			Visibility: privacy.Level(pv % 6), Granularity: privacy.Level(pg % 6), Retention: privacy.Level(prr % 6)}
		polT := privacy.Tuple{Purpose: "p",
			Visibility: privacy.Level(hv % 6), Granularity: privacy.Level(hg % 6), Retention: privacy.Level(hr % 6)}
		hp := privacy.NewHousePolicy("a")
		hp.Add("x", polT)
		d := privacy.OrderedDimensions[int(dim)%3]
		wide := hp.Widen("b", "x", d, privacy.Level(delta%4))

		prov := privacy.NewPrefs("i", 1)
		prov.Add("x", pref)
		prov.SetSensitivity("x", privacy.Sensitivity{Value: 2, Visibility: 1, Granularity: 3, Retention: 2})

		a1, _ := NewAssessor(hp, nil, Options{})
		a2, _ := NewAssessor(wide, nil, Options{})
		return a2.Severity(prov) >= a1.Severity(prov)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: w_i = 1 exactly when Violation_i > 0, provided all sensitivity
// components are strictly positive (severity cannot vanish on a violated
// dimension).
func TestViolatedIffPositiveSeverity(t *testing.T) {
	f := func(pv, pg, prr, hv, hg, hr uint8) bool {
		pref := privacy.Tuple{Purpose: "p",
			Visibility: privacy.Level(pv % 6), Granularity: privacy.Level(pg % 6), Retention: privacy.Level(prr % 6)}
		polT := privacy.Tuple{Purpose: "p",
			Visibility: privacy.Level(hv % 6), Granularity: privacy.Level(hg % 6), Retention: privacy.Level(hr % 6)}
		hp := privacy.NewHousePolicy("a")
		hp.Add("x", polT)
		prov := privacy.NewPrefs("i", 1)
		prov.Add("x", pref)

		a, _ := NewAssessor(hp, nil, Options{})
		return a.violatedReference(prov) == (a.Severity(prov) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
