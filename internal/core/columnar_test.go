package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/policydsl"
	"repro/internal/population"
	"repro/internal/privacy"
)

// randomPolicy draws a house policy over a pool of attributes and purposes:
// 1..4 tuples per attribute, random levels on the default scales.
func randomPolicy(rng *rand.Rand, attrs []string, purposes []privacy.Purpose) *privacy.HousePolicy {
	hp := privacy.NewHousePolicy("rand")
	for _, a := range attrs {
		n := 1 + rng.Intn(4)
		perm := rng.Perm(len(purposes))
		for k := 0; k < n && k < len(perm); k++ {
			hp.Add(a, privacy.Tuple{
				Purpose:     purposes[perm[k]],
				Visibility:  privacy.Level(rng.Intn(5)),
				Granularity: privacy.Level(rng.Intn(4)),
				Retention:   privacy.Level(rng.Intn(6)),
			})
		}
	}
	return hp
}

// randomPrefs draws one provider: a random subset of attributes (sometimes
// attributes the policy does not cover), random purposes (sometimes
// purposes the policy does not use), random sensitivities including
// per-purpose overrides, and a small threshold so defaults actually occur.
func randomPrefs(rng *rand.Rand, name string, attrs []string, purposes []privacy.Purpose) *privacy.Prefs {
	p := privacy.NewPrefs(name, rng.Float64()*8)
	for _, a := range attrs {
		if rng.Float64() < 0.25 {
			continue // leave the attribute to the implicit-zero rule
		}
		n := rng.Intn(3)
		perm := rng.Perm(len(purposes))
		for k := 0; k < n && k < len(perm); k++ {
			p.Add(a, privacy.Tuple{
				Purpose:     purposes[perm[k]],
				Visibility:  privacy.Level(rng.Intn(5)),
				Granularity: privacy.Level(rng.Intn(4)),
				Retention:   privacy.Level(rng.Intn(6)),
			})
		}
		if rng.Float64() < 0.7 {
			p.SetSensitivity(a, privacy.Sensitivity{
				Value:       rng.Float64() * 2,
				Visibility:  rng.Float64() * 2,
				Granularity: rng.Float64() * 2,
				Retention:   rng.Float64() * 2,
			})
		}
		if rng.Float64() < 0.3 {
			p.SetPurposeSensitivity(a, purposes[rng.Intn(len(purposes))], privacy.Sensitivity{
				Value:       rng.Float64() * 3,
				Visibility:  rng.Float64(),
				Granularity: rng.Float64(),
				Retention:   rng.Float64(),
			})
		}
	}
	return p
}

// oracleCase is one (policy, population) input the kernel is checked
// against the reference walks on, with the attributes and purposes the
// binding suite probes.
type oracleCase struct {
	name     string
	hp       *privacy.HousePolicy
	sens     privacy.AttributeSensitivities
	pop      []*privacy.Prefs
	attrs    []string
	purposes []privacy.Purpose
}

// oracleOptions are the assessor configurations every oracle suite runs,
// keyed like the suites' subtest names: the paper's model, the
// implicit-zero ablation, and a purpose lattice.
func oracleOptions(t testing.TB) []Options {
	t.Helper()
	lat := privacy.NewLattice()
	for _, e := range [][2]privacy.Purpose{{"marketing", "sharing"}, {"service", "research"}, {"care", "research"}} {
		if err := lat.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return []Options{{}, {DisableImplicitZero: true}, {Matcher: lat}}
}

// optionsName renders opts the way the suites name their subtests.
func optionsName(opts Options) string {
	return fmt.Sprintf("implicit=%v/lattice=%v", !opts.DisableImplicitZero, opts.Matcher != nil)
}

// randomCase draws a random policy and n random providers from seed, over
// attributes and purposes the policy partly does not cover.
func randomCase(seed int64, n int) oracleCase {
	attrs := []string{"income", "weight", "Email", " Address "}
	extraAttrs := append(append([]string(nil), attrs...), "uncovered")
	purposes := []privacy.Purpose{"service", "marketing", "research", "Sharing"}
	extraPurposes := append(append([]privacy.Purpose(nil), purposes...), "unused")
	rng := rand.New(rand.NewSource(seed))
	oc := oracleCase{
		name:     fmt.Sprintf("seed=%d", seed),
		hp:       randomPolicy(rng, attrs, purposes),
		sens:     privacy.AttributeSensitivities{"income": 2.5, "email": 0.5},
		attrs:    extraAttrs,
		purposes: extraPurposes,
	}
	for i := 0; i < n; i++ {
		oc.pop = append(oc.pop, randomPrefs(rng, fmt.Sprintf("p%03d", i), extraAttrs, extraPurposes))
	}
	return oc
}

// storeCases are the populations the store-level suites feed the kernel:
// Westin-segment generator populations (internal/population) — the
// internal/ppdb equivalence suites' weight/income population under their
// two policy levels, and a wider one under a random policy — and both
// examples/corpus documents, plus the clinic providers under the
// clinic-v2 policy (the corpus' policy swap).
func storeCases(t testing.TB) []oracleCase {
	t.Helper()
	store, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	storePop := population.PrefsOf(store.Generate(200))
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service", "research"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service", "marketing"}},
			{Name: "condition", Sensitivity: 5, Purposes: []privacy.Purpose{"care", "research"}},
		},
	}, 2011)
	if err != nil {
		t.Fatal(err)
	}
	attrs := []string{"weight", "income", "condition", "uncovered"}
	purposes := []privacy.Purpose{"service", "research", "marketing", "care", "sharing", "unused"}
	cases := []oracleCase{{
		name:     "westin",
		hp:       randomPolicy(rand.New(rand.NewSource(2011)), attrs[:3], purposes[:5]),
		sens:     gen.AttributeSensitivities(),
		pop:      population.PrefsOf(gen.Generate(300)),
		attrs:    attrs,
		purposes: purposes,
	}}
	for _, level := range []privacy.Level{2, 3} {
		hp := privacy.NewHousePolicy(fmt.Sprintf("store-l%d", level))
		for _, attr := range []string{"weight", "income"} {
			hp.Add(attr, privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
		}
		cases = append(cases, oracleCase{
			name:     fmt.Sprintf("westin-store-l%d", level),
			hp:       hp,
			sens:     store.AttributeSensitivities(),
			pop:      storePop,
			attrs:    attrs,
			purposes: purposes,
		})
	}
	docs := map[string]*policydsl.Document{}
	for _, name := range []string{"clinic", "clinic-v2"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "corpus", name+".dsl"))
		if err != nil {
			t.Fatal(err)
		}
		doc, err := policydsl.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = doc
	}
	corpus := func(name, policyDoc, providersDoc string) oracleCase {
		pd := docs[policyDoc]
		return oracleCase{
			name:     name,
			hp:       pd.Policy,
			sens:     pd.AttrSens,
			pop:      docs[providersDoc].Providers,
			attrs:    []string{"condition", "weight", "provider"},
			purposes: []privacy.Purpose{"care", "research", "billing"},
		}
	}
	return append(cases,
		corpus("corpus=clinic", "clinic", "clinic"),
		corpus("corpus=clinic-v2", "clinic-v2", "clinic-v2"),
		corpus("corpus=clinic-v2-over-clinic", "clinic-v2", "clinic"))
}

// checkKernelReports compares, for every provider, the kernel's report on
// fresh columns, AssessRow with and without current columns, and
// AssessProvider against the Eq. 15 walk (field for field and in JSON
// bytes), Violated against the Def. 1 walk, and the compiled cover storage
// against the number of comparable pairs.
func checkKernelReports(t *testing.T, a *Assessor, pop []*privacy.Prefs) {
	t.Helper()
	var sc Scratch
	for i, p := range pop {
		want := a.assessReference(p)
		c := a.Compile(p)
		got := a.AssessCompiled(c, &sc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("provider %d: kernel report differs\n got: %+v\nwant: %+v", i, got, want)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("provider %d: JSON differs\n got: %s\nwant: %s", i, gj, wj)
		}
		if rep := a.AssessRow(p, c, &sc); !reflect.DeepEqual(rep, want) {
			t.Fatalf("provider %d: AssessRow (compiled) differs from reference", i)
		}
		if rep := a.AssessRow(p, nil, &sc); !reflect.DeepEqual(rep, want) {
			t.Fatalf("provider %d: AssessRow (uncompiled) differs from reference", i)
		}
		if rep := a.AssessProvider(p); !reflect.DeepEqual(rep, want) {
			t.Fatalf("provider %d: AssessProvider differs from reference", i)
		}
		if got, want := a.Violated(p), a.violatedReference(p); got != want {
			t.Fatalf("provider %d: Violated = %v, Def. 1 walk says %v", i, got, want)
		}
		if got, want := len(c.covers), a.comparablePairs(p); got != want {
			t.Fatalf("provider %d: %d covered offsets stored for %d comparable pairs", i, got, want)
		}
	}
}

// TestAssessCompiledMatchesReference is the randomized-population property
// test: across seeds, the store-level populations, matchers and the
// implicit-zero ablation, the columnar kernel must produce a report
// identical — field-for-field and in JSON bytes — to the Eq. 15 walk.
func TestAssessCompiledMatchesReference(t *testing.T) {
	var cases []oracleCase
	for _, seed := range []int64{1, 42, 2011, 20260808} {
		cases = append(cases, randomCase(seed, 200))
	}
	cases = append(cases, storeCases(t)...)
	for _, oc := range cases {
		for _, opts := range oracleOptions(t) {
			t.Run(oc.name+"/"+optionsName(opts), func(t *testing.T) {
				a, err := NewAssessor(oc.hp, oc.sens, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkKernelReports(t, a, oc.pop)
			})
		}
	}
}

// widePolicy builds a policy with n tuples on attribute "wide" (purposes
// pu000…, unique, random levels) beside a narrow attribute, and a lattice
// under which "all" covers every third wide purpose and "tail" every wide
// purpose from offset 60 on, so covered lists run long and past offset 64.
func widePolicy(t testing.TB, rng *rand.Rand, n int) (*privacy.HousePolicy, *privacy.Lattice, []privacy.Purpose) {
	t.Helper()
	hp := privacy.NewHousePolicy(fmt.Sprintf("wide-%d", n))
	lat := privacy.NewLattice()
	purposes := make([]privacy.Purpose, n)
	for j := range purposes {
		purposes[j] = privacy.Purpose(fmt.Sprintf("pu%03d", j))
		hp.Add("wide", privacy.Tuple{
			Purpose:     purposes[j],
			Visibility:  privacy.Level(rng.Intn(5)),
			Granularity: privacy.Level(rng.Intn(4)),
			Retention:   privacy.Level(rng.Intn(6)),
		})
		if j%3 == 0 {
			if err := lat.AddEdge("all", purposes[j]); err != nil {
				t.Fatal(err)
			}
		}
		if j >= 60 {
			if err := lat.AddEdge("tail", purposes[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	hp.Add("narrow", privacy.Tuple{Purpose: "pu000", Visibility: 2, Granularity: 2, Retention: 2})
	return hp, lat, purposes
}

// TestCompileIsTotal pins the total kernel: policies with 63, 64, 65, 70
// and 130 tuples on one attribute compile to columns, and the kernel's
// reports and its bindings at every policy offset — 64 and above included
// — equal the reference walks, under equality, the lattice matcher and
// the implicit-zero ablation.
func TestCompileIsTotal(t *testing.T) {
	for _, n := range []int{63, 64, 65, 70, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		hp, lat, purposes := widePolicy(t, rng, n)
		pool := append([]privacy.Purpose{"all", "tail", "none"}, purposes...)
		var pop []*privacy.Prefs
		for i := 0; i < 24; i++ {
			p := privacy.NewPrefs(fmt.Sprintf("p%02d", i), rng.Float64()*50)
			for k := rng.Intn(8); k >= 0; k-- {
				pr := pool[rng.Intn(len(pool))]
				if k == 0 {
					pr = purposes[n-1] // every provider binds the last offset
				}
				p.Add("wide", privacy.Tuple{
					Purpose:     pr,
					Visibility:  privacy.Level(rng.Intn(5)),
					Granularity: privacy.Level(rng.Intn(4)),
					Retention:   privacy.Level(rng.Intn(6)),
				})
			}
			p.SetSensitivity("wide", privacy.Sensitivity{Value: 1 + rng.Float64(), Visibility: rng.Float64(), Granularity: 1, Retention: 2})
			pop = append(pop, p)
		}
		for _, opts := range []Options{{}, {Matcher: lat}, {DisableImplicitZero: true}} {
			t.Run(fmt.Sprintf("tuples=%d/%s", n, optionsName(opts)), func(t *testing.T) {
				a, err := NewAssessor(hp, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pop {
					if c := a.Compile(p); c == nil || !c.CurrentFor(a) {
						t.Fatalf("provider %d: Compile returned no current columns for a %d-tuple attribute", i, n)
					}
				}
				checkKernelReports(t, a, pop)
				high := 0 // bindings found at offsets >= 64
				for i, p := range pop {
					c := a.Compile(p)
					for j, pr := range purposes {
						ref, ok := a.FindPolicyTuple("wide", pr)
						if !ok || int(ref.Index) != j {
							t.Fatalf("policy tuple %d not found at its own offset: %+v", j, ref)
						}
						got := a.BindingFor(p, c, ref)
						want := a.bindingReference(p, ref)
						if !sameBinding(a, p, c, ref, got, want) {
							t.Fatalf("provider %d offset %d: binding differs\n got: %+v\nwant: %+v", i, j, got, want)
						}
						if got.Found && j >= 64 {
							high++
						}
					}
				}
				if n > 64 && high == 0 {
					t.Fatalf("no binding found at an offset >= 64; the test does not reach the wide range")
				}
			})
		}
	}
}

// TestAssessRowFallbacks covers every guard edge: nil columns, a nil
// scratch, columns compiled under a different policy, and a policy with
// more than 64 tuples on one attribute — each answered by the kernel and
// equal to the reference walk.
func TestAssessRowFallbacks(t *testing.T) {
	hp := privacy.NewHousePolicy("hp").
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 3, Granularity: 2, Retention: 4})
	a, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := privacy.NewPrefs("prov", 0.5).
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 1, Granularity: 1, Retention: 1})
	want := a.assessReference(p)
	var sc Scratch

	if got := a.AssessRow(p, nil, &sc); !reflect.DeepEqual(got, want) {
		t.Errorf("nil compiled: AssessRow differs from reference")
	}
	if got := a.AssessRow(p, a.Compile(p), nil); !reflect.DeepEqual(got, want) {
		t.Errorf("nil scratch: AssessRow differs from reference")
	}

	// A wide policy compiles like any other; offsets past 64 are plain
	// list entries.
	wide := privacy.NewHousePolicy("wide")
	for i := 0; i < 70; i++ {
		wide.Add("a", privacy.Tuple{Purpose: privacy.Purpose(fmt.Sprintf("pu%02d", i)), Visibility: 2})
	}
	wa, err := NewAssessor(wide, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wc := wa.Compile(p)
	if !wc.CurrentFor(wa) || wc.Len() != 70 {
		t.Fatalf("70-tuple policy: compiled %d tuples, want 70 implicit zeros", wc.Len())
	}
	wideWant := wa.assessReference(p)
	if got := wa.AssessRow(p, wc, &sc); !reflect.DeepEqual(got, wideWant) {
		t.Errorf("wide policy: AssessRow differs from reference")
	}
	if got := wa.AssessRow(p, nil, &sc); !reflect.DeepEqual(got, wideWant) {
		t.Errorf("wide policy, nil compiled: AssessRow differs from reference")
	}

	// Columns compiled under another policy must be rejected, not trusted.
	other := privacy.NewHousePolicy("other").
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 4, Granularity: 3, Retention: 5})
	oa, err := NewAssessor(other, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := oa.Compile(p)
	if stale.CurrentFor(a) {
		t.Fatalf("columns compiled under another policy report CurrentFor = true")
	}
	if got := a.AssessRow(p, stale, &sc); !reflect.DeepEqual(got, want) {
		t.Errorf("stale compiled: AssessRow differs from reference")
	}
	// The scratch buffer the stale path compiled into must not leak into
	// the next provider's report.
	q := privacy.NewPrefs("other", 9)
	if got := a.AssessRow(q, nil, &sc); !reflect.DeepEqual(got, a.assessReference(q)) {
		t.Errorf("reused scratch columns: AssessRow differs from reference")
	}
	// Nil preferences compile to empty columns.
	if c := a.Compile(nil); c == nil || c.Len() != 0 || !c.CurrentFor(a) {
		t.Errorf("Compile(nil) = %+v, want empty current columns", c)
	}
}

// TestRetentionCeiling pins the per-attribute retention ceiling the sweep
// consumes: the maximum over the attribute's policy tuples.
func TestRetentionCeiling(t *testing.T) {
	hp := privacy.NewHousePolicy("hp").
		Add("a", privacy.Tuple{Purpose: "p1", Retention: 2}).
		Add("a", privacy.Tuple{Purpose: "p2", Retention: 5}).
		Add("b", privacy.Tuple{Purpose: "p1", Retention: 0})
	a, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := a.Compiled()
	if l, ok := cp.RetentionCeiling("A"); !ok || l != 5 {
		t.Errorf("RetentionCeiling(a) = %d, %v; want 5, true", l, ok)
	}
	if l, ok := cp.RetentionCeiling("b"); !ok || l != 0 {
		t.Errorf("RetentionCeiling(b) = %d, %v; want 0, true", l, ok)
	}
	if _, ok := cp.RetentionCeiling("zzz"); ok {
		t.Errorf("RetentionCeiling(zzz) should report no coverage")
	}
}

// TestAssessCompiledZeroAlloc pins the kernel's zero-allocation claim for
// non-violated providers (after scratch warm-up): the hot certification
// loop must not touch the heap for the common clean row.
func TestAssessCompiledZeroAlloc(t *testing.T) {
	hp := privacy.NewHousePolicy("hp").
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 1, Granularity: 1, Retention: 1}).
		Add("b", privacy.Tuple{Purpose: "svc", Visibility: 1, Granularity: 1, Retention: 1})
	a, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean := privacy.NewPrefs("clean", privacy.NoDefaultThreshold).
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 4, Granularity: 3, Retention: 5}).
		Add("b", privacy.Tuple{Purpose: "svc", Visibility: 4, Granularity: 3, Retention: 5})
	c := a.Compile(clean)
	var sc Scratch
	if rep := a.AssessCompiled(c, &sc); rep.Violated {
		t.Fatalf("clean provider reported violated: %+v", rep)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = a.AssessCompiled(c, &sc)
	})
	if allocs != 0 {
		t.Errorf("AssessCompiled allocates %.1f objects/op for a clean provider; want 0", allocs)
	}

	// A violated provider allocates only the materialized report (2 slices).
	hot := privacy.NewPrefs("hot", 0).
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 0, Granularity: 0, Retention: 0})
	hc := a.Compile(hot)
	a.AssessCompiled(hc, &sc) // warm the arena
	allocs = testing.AllocsPerRun(100, func() {
		_ = a.AssessCompiled(hc, &sc)
	})
	if allocs > 2 {
		t.Errorf("AssessCompiled allocates %.1f objects/op for a violated provider; want <= 2", allocs)
	}
}
