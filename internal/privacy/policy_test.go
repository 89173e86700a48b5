package privacy

import (
	"strings"
	"testing"
)

func testPolicy() *HousePolicy {
	hp := NewHousePolicy("v1")
	hp.Add("Weight", Tuple{Purpose: "research", Visibility: 2, Granularity: 2, Retention: 2})
	hp.Add("Weight", Tuple{Purpose: "marketing", Visibility: 3, Granularity: 3, Retention: 4})
	hp.Add("Age", Tuple{Purpose: "research", Visibility: 2, Granularity: 1, Retention: 2})
	return hp
}

func TestHousePolicyBasics(t *testing.T) {
	hp := testPolicy()
	if hp.Len() != 3 {
		t.Fatalf("Len = %d", hp.Len())
	}
	attrs := hp.Attributes()
	if len(attrs) != 2 || attrs[0] != "age" || attrs[1] != "weight" {
		t.Fatalf("Attributes = %v", attrs)
	}
	w := hp.ForAttribute("WEIGHT") // case-insensitive (Eq. 4 extraction)
	if len(w) != 2 {
		t.Fatalf("ForAttribute(weight) = %v", w)
	}
	if tp, ok := hp.Find("weight", "Marketing"); !ok || tp.Retention != 4 {
		t.Errorf("Find(weight, marketing) = %v, %v", tp, ok)
	}
	if _, ok := hp.Find("weight", "care"); ok {
		t.Error("Find should miss for unknown purpose")
	}
	if _, ok := hp.Find("height", "research"); ok {
		t.Error("Find should miss for unknown attribute")
	}
}

func TestHousePolicyPurposes(t *testing.T) {
	hp := testPolicy()
	ps := hp.Purposes()
	if len(ps) != 2 || ps[0] != "marketing" || ps[1] != "research" {
		t.Errorf("Purposes = %v", ps)
	}
	pw := hp.PurposesFor("weight")
	if len(pw) != 2 {
		t.Errorf("PurposesFor(weight) = %v", pw)
	}
	pa := hp.PurposesFor("age")
	if len(pa) != 1 || pa[0] != "research" {
		t.Errorf("PurposesFor(age) = %v", pa)
	}
}

func TestAddUnique(t *testing.T) {
	hp := NewHousePolicy("v1")
	if err := hp.AddUnique("a", Tuple{Purpose: "p", Visibility: 1}); err != nil {
		t.Fatalf("first AddUnique: %v", err)
	}
	if err := hp.AddUnique("A", Tuple{Purpose: " P ", Visibility: 2}); err == nil {
		t.Error("duplicate (attr, purpose) should be rejected")
	}
	if err := hp.AddUnique("a", Tuple{Purpose: "q", Visibility: 1}); err != nil {
		t.Errorf("different purpose should be allowed: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	hp := testPolicy()
	cp := hp.Clone("v2")
	cp.Add("income", Tuple{Purpose: "billing", Visibility: 1})
	if hp.Len() != 3 || cp.Len() != 4 {
		t.Error("Clone must be independent")
	}
	if !hp.Equal(hp.Clone("any")) {
		t.Error("clone should Equal the original")
	}
	if hp.Equal(cp) {
		t.Error("modified clone should not Equal the original")
	}
}

func TestWiden(t *testing.T) {
	hp := testPolicy()
	w := hp.Widen("v2", "weight", DimGranularity, 1)
	// Both weight tuples widened, age untouched.
	for _, e := range w.ForAttribute("weight") {
		orig, _ := hp.Find("weight", e.Tuple.Purpose)
		if e.Tuple.Granularity != orig.Granularity+1 {
			t.Errorf("weight %s granularity = %d, want %d", e.Tuple.Purpose, e.Tuple.Granularity, orig.Granularity+1)
		}
	}
	a, _ := w.Find("age", "research")
	if a.Granularity != 1 {
		t.Errorf("age should be untouched, got %v", a)
	}
	if hp.Len() != w.Len() {
		t.Error("Widen must preserve tuple count")
	}

	all := hp.WidenAll("v3", DimRetention, 1)
	for _, e := range all.Entries() {
		orig, _ := hp.Find(e.Attribute, e.Tuple.Purpose)
		if e.Tuple.Retention != orig.Retention+1 {
			t.Errorf("WidenAll retention wrong for %s/%s", e.Attribute, e.Tuple.Purpose)
		}
	}
}

func TestAddPurposeExpansion(t *testing.T) {
	hp := testPolicy()
	exp := hp.AddPurpose("v2", "age", Tuple{Purpose: "marketing", Visibility: 3, Granularity: 2, Retention: 3})
	if exp.Len() != hp.Len()+1 {
		t.Fatalf("AddPurpose should add one tuple")
	}
	if _, ok := exp.Find("age", "marketing"); !ok {
		t.Error("new purpose tuple missing")
	}
}

func TestPolicyValidate(t *testing.T) {
	sc := DefaultScales()
	if err := testPolicy().Validate(sc); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	bad := NewHousePolicy("bad")
	bad.Add("a", Tuple{Purpose: "", Visibility: 1})
	if err := bad.Validate(sc); err == nil {
		t.Error("empty purpose should fail validation")
	}
	bad2 := NewHousePolicy("bad2")
	bad2.Add("a", Tuple{Purpose: "p", Visibility: 99})
	if err := bad2.Validate(sc); err == nil {
		t.Error("off-scale level should fail validation")
	}
	bad3 := NewHousePolicy(`say "hi"`)
	if err := bad3.Validate(sc); err == nil {
		t.Error("a quote in the policy name should fail validation")
	}
	bad4 := NewHousePolicy("p")
	bad4.Add("a", Tuple{Purpose: "line\nbreak"})
	if err := bad4.Validate(sc); err == nil {
		t.Error("a newline in a purpose should fail validation")
	}
}

func TestPolicyEqualMultiset(t *testing.T) {
	a := NewHousePolicy("a")
	a.Add("x", Tuple{Purpose: "p", Visibility: 1})
	a.Add("x", Tuple{Purpose: "p", Visibility: 1})
	b := NewHousePolicy("b")
	b.Add("x", Tuple{Purpose: "p", Visibility: 1})
	if a.Equal(b) {
		t.Error("different multiplicities should not be Equal")
	}
	b.Add("x", Tuple{Purpose: "p", Visibility: 1})
	if !a.Equal(b) {
		t.Error("same multisets should be Equal")
	}
}

func TestPolicyString(t *testing.T) {
	s := testPolicy().String()
	if !strings.Contains(s, "v1") || !strings.Contains(s, "weight") || !strings.Contains(s, "age") {
		t.Errorf("String = %q", s)
	}
}

func TestEntriesCopy(t *testing.T) {
	hp := testPolicy()
	es := hp.Entries()
	es[0].Attribute = "mutated"
	if hp.Entries()[0].Attribute == "mutated" {
		t.Error("Entries must return a copy")
	}
}
