package policydsl

import (
	"strings"
	"testing"

	"repro/internal/privacy"
)

const sampleDoc = `
# The Sec. 8 worked example expressed in the DSL.
policy "table1" {
  attr weight {
    tuple purpose=research visibility=house granularity=partial retention=week
  }
  attr age {
    tuple purpose=research visibility=owner granularity=existential retention=transient
  }
  sensitivity weight 4
  sensitivity age 1
}

provider "alice" threshold 10 {
  attr weight {
    sens value=1 v=1 g=2 r=1
    tuple purpose=research visibility=world granularity=specific retention=year
  }
}

provider "ted" threshold 50 {
  attr weight {
    sens value=3 v=1 g=5 r=2
    tuple purpose=research visibility=world granularity=existential retention=month
  }
}
`

func TestParseSample(t *testing.T) {
	doc, err := Parse(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Policy == nil || doc.Policy.Name != "table1" {
		t.Fatal("policy missing")
	}
	if doc.Policy.Len() != 2 {
		t.Errorf("policy tuples = %d", doc.Policy.Len())
	}
	tw, ok := doc.Policy.Find("weight", "research")
	if !ok {
		t.Fatal("weight tuple missing")
	}
	// house=2, partial=2, week=2 on the default scales.
	if tw.Visibility != 2 || tw.Granularity != 2 || tw.Retention != 2 {
		t.Errorf("weight tuple = %v", tw)
	}
	if doc.AttrSens.Get("weight") != 4 || doc.AttrSens.Get("age") != 1 {
		t.Errorf("Σ = %v", doc.AttrSens)
	}
	if len(doc.Providers) != 2 {
		t.Fatalf("providers = %d", len(doc.Providers))
	}
	alice := doc.Providers[0]
	if alice.Provider != "alice" || alice.Threshold != 10 {
		t.Errorf("alice = %v", alice)
	}
	s := alice.Sensitivity("weight", "research")
	if s.Value != 1 || s.Granularity != 2 {
		t.Errorf("alice sens = %v", s)
	}
	at, _ := alice.Find("weight", "research")
	// world=4, specific=3, year=4.
	if at.Visibility != 4 || at.Granularity != 3 || at.Retention != 4 {
		t.Errorf("alice tuple = %v", at)
	}
}

func TestParseNumericLevels(t *testing.T) {
	doc, err := Parse(`policy "p" { attr x { tuple purpose=q visibility=1 granularity=2 retention=3 } }`)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := doc.Policy.Find("x", "q")
	if tp.Visibility != 1 || tp.Granularity != 2 || tp.Retention != 3 {
		t.Errorf("tuple = %v", tp)
	}
}

func TestParsePerPurposeSens(t *testing.T) {
	doc, err := Parse(`provider "p" threshold 5 {
	  attr x {
	    sens value=1 v=1 g=1 r=1
	    sens purpose=marketing value=9 v=9 g=9 r=9
	    tuple purpose=marketing visibility=0 granularity=0 retention=0
	  }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.Providers[0]
	if p.Sensitivity("x", "marketing").Value != 9 {
		t.Error("per-purpose override not parsed")
	}
	if p.Sensitivity("x", "other").Value != 1 {
		t.Error("default sens not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`policy`,       // missing name
		`policy "p" {`, // unterminated
		`policy "p" { attr x { tuple purpose=q } }`,                                          // incomplete tuple
		`policy "p" { attr x { tuple purpose=q visibility=zzz granularity=0 retention=0 } }`, // bad level
		`policy "p" { bogus }`,                                 // unknown directive
		`policy "p" {} policy "q" {}`,                          // two policies
		`provider "a" { }`,                                     // missing threshold
		`provider "a" threshold x {}`,                          // non-numeric threshold
		`provider "a" threshold 5 { attr x { sens value=1 } }`, // incomplete sens
		`provider "a" threshold -5 { }`,                        // negative threshold fails validation
		`policy "p" { attr x { tuple purpose=q visibility=-1 granularity=0 retention=0 } }`,
		`wat`,
		`policy "unterminated string`,
		"policy \"p\" { attr x { tuple purpose=q visibility=99 granularity=0 retention=0 } }",   // off scale
		"policy \"p\" { attr \xc1 { tuple purpose=q visibility=0 granularity=0 retention=0 } }", // invalid UTF-8 identifier
		`provider "" threshold 1 {}`, // empty provider name fails validation
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestComments(t *testing.T) {
	doc, err := Parse("# leading comment\npolicy \"p\" { # inline\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Policy.Name != "p" {
		t.Error("comment handling broke parsing")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	doc, err := Parse(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	text := Render(doc)
	doc2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of rendered doc: %v\n%s", err, text)
	}
	if !doc.Policy.Equal(doc2.Policy) {
		t.Errorf("policy round-trip mismatch:\n%s\nvs\n%s", doc.Policy, doc2.Policy)
	}
	if len(doc2.Providers) != len(doc.Providers) {
		t.Fatalf("provider count mismatch")
	}
	for i := range doc.Providers {
		a, b := doc.Providers[i], doc2.Providers[i]
		if a.Provider != b.Provider || a.Threshold != b.Threshold || a.Len() != b.Len() {
			t.Errorf("provider %s round-trip mismatch", a.Provider)
		}
		for _, attr := range a.Attributes() {
			for _, e := range a.ForAttribute(attr) {
				if got, ok := b.Find(attr, e.Tuple.Purpose); !ok || got != e.Tuple {
					t.Errorf("tuple mismatch for %s/%s: %v vs %v", attr, e.Tuple.Purpose, e.Tuple, got)
				}
				sa := a.Sensitivity(attr, e.Tuple.Purpose)
				sb := b.Sensitivity(attr, e.Tuple.Purpose)
				if sa != sb {
					t.Errorf("sens mismatch for %s: %v vs %v", attr, sa, sb)
				}
			}
		}
	}
	if doc2.AttrSens.Get("weight") != 4 {
		t.Error("Σ lost in round-trip")
	}
}

func TestParseWithCustomScales(t *testing.T) {
	sc := privacy.Scales{
		Visibility:  privacy.MustScale(privacy.DimVisibility, "secret", "public"),
		Granularity: privacy.MustScale(privacy.DimGranularity, "hidden", "shown"),
		Retention:   privacy.MustScale(privacy.DimRetention, "never", "forever"),
	}
	doc, err := ParseWithScales(`policy "p" { attr x { tuple purpose=q visibility=public granularity=shown retention=forever } }`, sc)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := doc.Policy.Find("x", "q")
	if tp.Visibility != 1 || tp.Granularity != 1 || tp.Retention != 1 {
		t.Errorf("tuple = %v", tp)
	}
	// Default scale names must not resolve on custom scales.
	if _, err := ParseWithScales(`policy "p" { attr x { tuple purpose=q visibility=house granularity=0 retention=0 } }`, sc); err == nil {
		t.Error("default scale name should fail on custom scales")
	}
	// Invalid scales rejected.
	if _, err := ParseWithScales("", privacy.Scales{}); err == nil {
		t.Error("invalid scales should fail")
	}
}

// TestUTF8IdentifiersAndVerbatimNames pins the lexing and rendering rules
// the round trip depends on (FuzzPolicyDSL checks the round trip itself):
// identifiers are UTF-8 words, quoted names are byte strings with no
// escapes, and words that are not identifiers render quoted.
func TestUTF8IdentifiersAndVerbatimNames(t *testing.T) {
	src := "policy \"clinic\\v1 \xfd\" { attr größe { tuple purpose=poids_é visibility=0 granularity=0 retention=0 } " +
		"attr \"blood type\" { tuple purpose=\"3\" visibility=0 granularity=0 retention=0 } }\n" +
		"provider \"ann\\bee\" threshold 1 { }"
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Policy.Name != "clinic\\v1 \xfd" || doc.Providers[0].Provider != `ann\bee` {
		t.Errorf("names = %q, %q", doc.Policy.Name, doc.Providers[0].Provider)
	}
	out := Render(doc)
	for _, want := range []string{"policy \"clinic\\v1 \xfd\" {", "provider \"ann\\bee\"", "attr größe {",
		"attr \"blood type\" {", "purpose=poids_é", "purpose=\"3\""} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}
