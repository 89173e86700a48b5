package core

import (
	"reflect"
	"testing"

	"repro/internal/privacy"
)

// TestFindPolicyTuple pins the plan-time gate semantics: exact-purpose
// tuples win in insertion order, a lattice matcher only widens the search
// after every exact candidate missed, and unknown attributes or unstated
// purposes resolve to nothing.
func TestFindPolicyTuple(t *testing.T) {
	hp := privacy.NewHousePolicy("hp").
		Add("email", privacy.Tuple{Purpose: "sharing", Visibility: 4, Granularity: 3, Retention: 5}).
		Add("email", privacy.Tuple{Purpose: "service", Visibility: 2, Granularity: 2, Retention: 3}).
		Add("income", privacy.Tuple{Purpose: "research", Visibility: 1, Granularity: 1, Retention: 2})

	lat := privacy.NewLattice()
	if err := lat.AddEdge("sharing", "bulk-sharing"); err != nil {
		t.Fatal(err)
	}

	eq, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cov, err := NewAssessor(hp, nil, Options{Matcher: lat})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("exact match in insertion order", func(t *testing.T) {
		ref, ok := eq.FindPolicyTuple("email", "service")
		if !ok {
			t.Fatal("expected a tuple for (email, service)")
		}
		if ref.Attr != "email" || ref.Index != 1 || ref.Tuple.Purpose != "service" || ref.Tuple.Visibility != 2 {
			t.Fatalf("wrong ref: %+v", ref)
		}
	})

	t.Run("normalizes attribute and purpose", func(t *testing.T) {
		ref, ok := eq.FindPolicyTuple("email", " Service ")
		if !ok || ref.Tuple.Purpose != "service" {
			t.Fatalf("normalized lookup failed: ok=%v ref=%+v", ok, ref)
		}
	})

	t.Run("equality matcher does not widen", func(t *testing.T) {
		if _, ok := eq.FindPolicyTuple("email", "bulk-sharing"); ok {
			t.Fatal("equality matcher must not cover bulk-sharing via sharing")
		}
	})

	t.Run("lattice matcher falls back to covering tuple", func(t *testing.T) {
		ref, ok := cov.FindPolicyTuple("email", "bulk-sharing")
		if !ok {
			t.Fatal("lattice matcher should cover bulk-sharing via sharing")
		}
		if ref.Tuple.Purpose != "sharing" || ref.Index != 0 {
			t.Fatalf("expected the sharing tuple, got %+v", ref)
		}
	})

	t.Run("exact still wins under a lattice", func(t *testing.T) {
		ref, ok := cov.FindPolicyTuple("email", "sharing")
		if !ok || ref.Tuple.Purpose != "sharing" {
			t.Fatalf("exact tuple should win: ok=%v ref=%+v", ok, ref)
		}
	})

	t.Run("unknown attribute", func(t *testing.T) {
		if _, ok := eq.FindPolicyTuple("ssn", "service"); ok {
			t.Fatal("unknown attribute must not resolve")
		}
	})

	t.Run("unstated purpose", func(t *testing.T) {
		if _, ok := cov.FindPolicyTuple("income", "service"); ok {
			t.Fatal("purpose the policy never states must not resolve")
		}
	})
}

// TestBindingForMatchesReference is the randomized property test for the
// per-datum lookup: at every resolvable (attribute, purpose) coordinate the
// columnar lookup must produce a binding identical — minima, binding
// tuples and implicit flags — to the reference preference fold, across
// seeds, the store-level populations, matchers and the implicit-zero
// ablation, whether it is handed current columns or none.
func TestBindingForMatchesReference(t *testing.T) {
	var cases []oracleCase
	for _, seed := range []int64{1, 42, 2011, 20260809} {
		cases = append(cases, randomCase(seed, 100))
	}
	cases = append(cases, storeCases(t)...)
	for _, oc := range cases {
		for _, opts := range oracleOptions(t) {
			t.Run(oc.name+"/"+optionsName(opts), func(t *testing.T) {
				a, err := NewAssessor(oc.hp, oc.sens, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range oc.pop {
					c := a.Compile(p)
					for _, attr := range oc.attrs {
						for _, pr := range oc.purposes {
							ref, ok := a.FindPolicyTuple(attr, pr)
							if !ok {
								continue
							}
							want := a.bindingReference(p, ref)
							got := a.BindingFor(p, c, ref)
							if !sameBinding(a, p, c, ref, got, want) {
								t.Fatalf("provider %d (%s, %s): binding differs\n got: %+v\nwant: %+v",
									i, attr, pr, got, want)
							}
							// Without columns the lookups compile afresh and
							// must give the same answer, positions included.
							if fb := a.BindingFor(p, nil, ref); !reflect.DeepEqual(fb, got) {
								t.Fatalf("provider %d (%s, %s): uncompiled binding differs", i, attr, pr)
							}
							if got.Found && a.BindingTuple(p, nil, got.VAt) != a.BindingTuple(p, c, got.VAt) {
								t.Fatalf("provider %d (%s, %s): uncompiled binding tuple differs", i, attr, pr)
							}
						}
					}
				}
			})
		}
	}
}

// sameBinding reports whether got, computed over the compiled columns c,
// and want, computed by the reference fold, are the same binding: equal
// levels and implicit flags, and the same binding tuples. The positions
// index each path's own enumeration, so the tuples are compared
// materialized.
func sameBinding(a *Assessor, p *privacy.Prefs, c *CompiledPrefs, ref PolicyTupleRef, got, want PrefBinding) bool {
	if got.Found != want.Found || got.V != want.V || got.G != want.G || got.R != want.R ||
		got.VImplicit != want.VImplicit || got.GImplicit != want.GImplicit || got.RImplicit != want.RImplicit {
		return false
	}
	if !got.Found {
		return true
	}
	eff := a.effectiveReference(p, ref.Attr) // the enumeration want's positions index
	for _, at := range [][2]int{{got.VAt, want.VAt}, {got.GAt, want.GAt}, {got.RAt, want.RAt}} {
		if a.BindingTuple(p, c, at[0]) != eff[at[1]].Tuple {
			return false
		}
	}
	return true
}

// TestBindingForDispatch covers the guards: a compilation built under a
// different policy must not be trusted, and nil preferences bind nothing.
func TestBindingForDispatch(t *testing.T) {
	hp := privacy.NewHousePolicy("hp").
		Add("email", privacy.Tuple{Purpose: "service", Visibility: 3, Granularity: 2, Retention: 4})
	a, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := privacy.NewPrefs("alice", 10).
		Add("email", privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 1, Retention: 2})
	ref, ok := a.FindPolicyTuple("email", "service")
	if !ok {
		t.Fatal("policy tuple not found")
	}
	want := a.bindingReference(p, ref)
	if !want.Found || want.V != 1 {
		t.Fatalf("reference binding unexpected: %+v", want)
	}

	// A compilation from a different assessor (different policy pointer) is
	// stale; BindingFor must ignore it and still answer correctly.
	hp2 := privacy.NewHousePolicy("hp2").
		Add("email", privacy.Tuple{Purpose: "service", Visibility: 3, Granularity: 2, Retention: 4})
	a2, err := NewAssessor(hp2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := a2.Compile(p)
	if got := a.BindingFor(p, stale, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("stale compiled binding differs\n got: %+v\nwant: %+v", got, want)
	}

	if got := a.BindingTuple(p, stale, want.VAt); got != a.effectiveReference(p, ref.Attr)[want.VAt].Tuple {
		t.Fatalf("stale compiled binding tuple = %+v", got)
	}

	// No preferences at all: the binding reports Found=false and the policy
	// alone bounds the disclosure.
	if b := a.BindingFor(nil, nil, ref); b.Found {
		t.Fatalf("nil prefs must yield an empty binding, got %+v", b)
	}
}
