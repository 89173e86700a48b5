package policydsl

import (
	"testing"
	"unsafe"
)

// TestParsedDocumentHoldsNoSourceBytes pins that a parsed document does not
// keep its source alive: every string a Prefs or HousePolicy stores —
// provider and policy names, attributes, purposes, σ keys and the Σ
// attributes — is a copy, and a name or purpose used twice is one copy.
// Otherwise one registered provider holds its whole request body live.
func TestParsedDocumentHoldsNoSourceBytes(t *testing.T) {
	src := `policy "house" {
  attr weight { tuple purpose=care visibility=house granularity=specific retention=year }
  attr "blood type" { tuple purpose="lab work" visibility=0 granularity=0 retention=0 }
  sensitivity weight 4
}
provider "alice" threshold 10 {
  attr weight {
    sens value=1 v=1 g=2 r=1
    sens purpose=research value=2 v=1 g=1 r=1
    tuple purpose=care visibility=world granularity=specific retention=year
  }
  attr income { sens value=3 v=1 g=1 r=1 }
}
provider bob threshold 5 {
  attr "blood type" { tuple purpose="lab work" visibility=1 granularity=1 retention=1 }
}
`
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	checked := 0
	check := func(what, s string) {
		t.Helper()
		checked++
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
			t.Errorf("%s %q points into the source", what, s)
		}
	}
	check("policy name", doc.Policy.Name)
	for _, e := range doc.Policy.Entries() {
		check("policy attribute", e.Attribute)
		check("policy purpose", string(e.Tuple.Purpose))
	}
	for a := range doc.AttrSens {
		check("Σ attribute", a)
	}
	for _, p := range doc.Providers {
		check("provider", p.Provider)
		for _, e := range p.Entries() {
			check("attribute", e.Attribute)
			check("purpose", string(e.Tuple.Purpose))
		}
		for _, k := range p.SensitivityKeys() {
			check("σ attribute", k.Attribute)
			if k.Purpose != "" {
				check("σ purpose", string(k.Purpose))
			}
		}
	}
	if checked != 16 {
		t.Errorf("checked %d strings, want 16", checked)
	}

	house := doc.Policy.ForAttribute("blood type")[0]
	bob := doc.Providers[1].Entries()[0]
	if unsafe.StringData(house.Attribute) != unsafe.StringData(bob.Attribute) ||
		unsafe.StringData(string(house.Tuple.Purpose)) != unsafe.StringData(string(bob.Tuple.Purpose)) {
		t.Error("an attribute or purpose used twice is held as two copies")
	}
}
