package privacy

import (
	"math"
	"strings"
	"testing"
)

func testPrefs() *Prefs {
	p := NewPrefs("alice", 10)
	p.Add("Weight", Tuple{Purpose: "research", Visibility: 4, Granularity: 3, Retention: 5})
	p.Add("Age", Tuple{Purpose: "research", Visibility: 2, Granularity: 2, Retention: 2})
	p.SetSensitivity("weight", Sensitivity{Value: 1, Visibility: 1, Granularity: 2, Retention: 1})
	return p
}

func TestPrefsBasics(t *testing.T) {
	p := testPrefs()
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	attrs := p.Attributes()
	if len(attrs) != 2 || attrs[0] != "age" || attrs[1] != "weight" {
		t.Fatalf("Attributes = %v", attrs)
	}
	if got := p.ForAttribute("WEIGHT"); len(got) != 1 || got[0].Tuple.Granularity != 3 {
		t.Errorf("ForAttribute = %v", got)
	}
	if tp, ok := p.Find("age", "RESEARCH"); !ok || tp.Visibility != 2 {
		t.Errorf("Find = %v, %v", tp, ok)
	}
	if _, ok := p.Find("age", "marketing"); ok {
		t.Error("Find should miss")
	}
}

func TestSensitivityResolution(t *testing.T) {
	p := testPrefs()
	s := p.Sensitivity("weight", "research")
	if s.Granularity != 2 {
		t.Errorf("per-attribute default not used: %v", s)
	}
	// Per-purpose override wins.
	p.SetPurposeSensitivity("weight", "Marketing", Sensitivity{Value: 9, Visibility: 9, Granularity: 9, Retention: 9})
	if got := p.Sensitivity("weight", "marketing"); got.Value != 9 {
		t.Errorf("per-purpose override not used: %v", got)
	}
	if got := p.Sensitivity("weight", "research"); got.Value != 1 {
		t.Errorf("override leaked to other purposes: %v", got)
	}
	// Unknown attribute falls back to unit.
	if got := p.Sensitivity("shoe", "research"); got != UnitSensitivity {
		t.Errorf("unit fallback missing: %v", got)
	}
}

func TestEffectiveForImplicitZero(t *testing.T) {
	p := testPrefs()
	house := []Purpose{"research", "marketing"}
	eff := p.EffectiveFor("weight", house, nil, true)
	if len(eff) != 2 {
		t.Fatalf("EffectiveFor = %v, want explicit + implicit", eff)
	}
	var implicit *PrefTuple
	for i := range eff {
		if eff[i].Tuple.Purpose == "marketing" {
			implicit = &eff[i]
		}
	}
	if implicit == nil {
		t.Fatal("implicit zero tuple for marketing missing")
	}
	z := implicit.Tuple
	if z.Visibility != 0 || z.Granularity != 0 || z.Retention != 0 {
		t.Errorf("implicit tuple should be zero: %v", z)
	}
	// Disabled: only the explicit tuple remains.
	if got := p.EffectiveFor("weight", house, nil, false); len(got) != 1 {
		t.Errorf("implicitZero=false should return explicit only, got %v", got)
	}
}

func TestEffectiveForLatticeCoverage(t *testing.T) {
	p := NewPrefs("bob", 5)
	p.Add("x", Tuple{Purpose: "marketing", Visibility: 3, Granularity: 3, Retention: 3})
	l := NewLattice()
	if err := l.AddEdge("marketing", "email-marketing"); err != nil {
		t.Fatal(err)
	}
	// Under the lattice, the marketing preference covers email-marketing, so
	// no implicit zero is synthesized.
	eff := p.EffectiveFor("x", []Purpose{"email-marketing"}, l, true)
	if len(eff) != 1 || eff[0].Tuple.Purpose != "marketing" {
		t.Errorf("lattice coverage failed: %v", eff)
	}
	// Under equality, an implicit zero appears.
	eff = p.EffectiveFor("x", []Purpose{"email-marketing"}, nil, true)
	if len(eff) != 2 {
		t.Errorf("equality should synthesize implicit zero: %v", eff)
	}
}

func TestPrefsCloneIndependence(t *testing.T) {
	p := testPrefs()
	c := p.Clone("")
	if c.Provider != "alice" || c.Threshold != 10 {
		t.Fatalf("Clone identity wrong: %v", c)
	}
	c.Add("income", Tuple{Purpose: "billing", Visibility: 1})
	c.SetSensitivity("income", Sensitivity{Value: 5, Visibility: 1, Granularity: 1, Retention: 1})
	if p.Len() != 2 {
		t.Error("Clone must be independent")
	}
	if p.Sensitivity("income", "billing") != UnitSensitivity {
		t.Error("Clone sensitivity map must be independent")
	}
	if c2 := p.Clone("carol"); c2.Provider != "carol" {
		t.Error("Clone rename failed")
	}
}

func TestPrefsValidate(t *testing.T) {
	sc := DefaultScales()
	if err := testPrefs().Validate(sc); err != nil {
		t.Fatalf("valid prefs rejected: %v", err)
	}
	bad := NewPrefs("", 1)
	if err := bad.Validate(sc); err == nil {
		t.Error("empty provider should fail")
	}
	bad2 := NewPrefs("x", -1)
	if err := bad2.Validate(sc); err == nil {
		t.Error("negative threshold should fail")
	}
	bad3 := NewPrefs("x", 1)
	bad3.Add("a", Tuple{Purpose: "", Visibility: 1})
	if err := bad3.Validate(sc); err == nil {
		t.Error("empty purpose should fail")
	}
	bad4 := NewPrefs("x", 1)
	bad4.Add("a", Tuple{Purpose: "p", Visibility: 1})
	bad4.SetSensitivity("a", Sensitivity{Value: -1})
	if err := bad4.Validate(sc); err == nil {
		t.Error("negative sensitivity should fail")
	}
	for _, name := range []string{`dr "who"`, "a\nb"} {
		if err := NewPrefs(name, 1).Validate(sc); err == nil {
			t.Errorf("provider name %q should fail", name)
		}
		q := NewPrefs("x", 1)
		q.Add(name, Tuple{Purpose: "p"})
		if err := q.Validate(sc); err == nil {
			t.Errorf("attribute name %q should fail", name)
		}
	}
	if err := NewPrefs(`ann\bee`, 1).Validate(sc); err != nil {
		t.Errorf("backslash in a provider name rejected: %v", err)
	}
}

func TestSensitivityHelpers(t *testing.T) {
	s := Sensitivity{Value: 2, Visibility: 3, Granularity: 4, Retention: 5}
	if s.Dim(DimVisibility) != 3 || s.Dim(DimGranularity) != 4 || s.Dim(DimRetention) != 5 {
		t.Error("Dim wrong")
	}
	k := s.Scale(2)
	if k.Value != 4 || k.Retention != 10 {
		t.Errorf("Scale wrong: %v", k)
	}
	if !strings.Contains(s.String(), "2") {
		t.Errorf("String = %q", s.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("Dim(purpose) should panic")
		}
	}()
	s.Dim(DimPurpose)
}

func TestAttributeSensitivities(t *testing.T) {
	var nilAS AttributeSensitivities
	if nilAS.Get("x") != 1 {
		t.Error("nil map should default to 1")
	}
	as := AttributeSensitivities{}
	as.Set(" Weight ", 4)
	if as.Get("weight") != 4 || as.Get("WEIGHT") != 4 {
		t.Error("Set/Get should be case-insensitive")
	}
	if as.Get("unknown") != 1 {
		t.Error("unknown attribute should default to 1")
	}
	if err := as.Validate(); err != nil {
		t.Errorf("valid Σ rejected: %v", err)
	}
	as.Set("bad", -2)
	if err := as.Validate(); err == nil {
		t.Error("negative Σ should fail")
	}
}

// TestWeightBounds pins the sensitivity cap and the finite threshold:
// every weight in [0, MaxSensitivity] passes, and NaN, a negative or an
// over-cap weight fails in both the σ and the Σ validator.
func TestWeightBounds(t *testing.T) {
	for _, w := range []float64{0, 1, 9, MaxSensitivity} {
		if err := (Sensitivity{Value: w, Visibility: w, Granularity: w, Retention: w}).Validate(); err != nil {
			t.Errorf("σ weight %g rejected: %v", w, err)
		}
		if err := (AttributeSensitivities{"a": w}).Validate(); err != nil {
			t.Errorf("Σ weight %g rejected: %v", w, err)
		}
	}
	for _, tc := range []struct {
		w    float64
		want string
	}{
		{math.NaN(), "not a number"},
		{-1, "negative"},
		{math.Nextafter(MaxSensitivity, math.Inf(1)), "cap"},
		{1e300, "cap"},
		{math.Inf(1), "cap"},
	} {
		err := (Sensitivity{Value: 1, Visibility: 1, Granularity: tc.w, Retention: 1}).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("σ weight %g: err %v, want %q", tc.w, err, tc.want)
		}
		err = (AttributeSensitivities{"a": 1, "b": tc.w}).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Σ weight %g: err %v, want %q", tc.w, err, tc.want)
		}
	}
	sc := DefaultScales()
	for _, v := range []float64{0, 50, NoDefaultThreshold} {
		if err := NewPrefs("p", v).Validate(sc); err != nil {
			t.Errorf("threshold %g rejected: %v", v, err)
		}
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := NewPrefs("p", v).Validate(sc); err == nil {
			t.Errorf("threshold %g accepted", v)
		}
	}
}

func TestPrefsString(t *testing.T) {
	s := testPrefs().String()
	if !strings.Contains(s, "alice") || !strings.Contains(s, "weight") {
		t.Errorf("String = %q", s)
	}
}
