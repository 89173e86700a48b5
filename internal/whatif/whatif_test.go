package whatif_test

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/population"
	"repro/internal/privacy"
	"repro/internal/whatif"
)

func tup(pr string, v, g, r privacy.Level) privacy.Tuple {
	return privacy.Tuple{Purpose: privacy.Purpose(pr), Visibility: v, Granularity: g, Retention: r}
}

// livePolicy is the baseline policy the diff tests mutate: three attributes,
// one with two purposes, levels within the default scales.
func livePolicy() *privacy.HousePolicy {
	hp := privacy.NewHousePolicy("live")
	hp.Add("weight", tup("service", 2, 2, 2))
	hp.Add("weight", tup("research", 1, 1, 1))
	hp.Add("income", tup("service", 2, 1, 1))
	hp.Add("contact", tup("marketing", 1, 2, 1))
	return hp
}

func liveSens() privacy.AttributeSensitivities {
	return privacy.AttributeSensitivities{"weight": 4, "income": 5, "contact": 2}
}

func TestApplyDiffValidationMatrix(t *testing.T) {
	cases := []struct {
		name    string
		diff    whatif.Diff
		wantErr string
	}{
		{"empty diff", whatif.Diff{}, "empty diff"},
		{"remove unknown tuple", whatif.Diff{
			Remove: []whatif.TupleRef{{Attribute: "weight", Purpose: "billing"}},
		}, "no such tuple"},
		{"duplicate remove", whatif.Diff{
			Remove: []whatif.TupleRef{
				{Attribute: "weight", Purpose: "research"},
				{Attribute: "Weight", Purpose: "research"},
			},
		}, "duplicate remove"},
		{"retarget unknown tuple", whatif.Diff{
			Retarget: []whatif.TupleSpec{{Attribute: "income", Purpose: "research", Visibility: 1}},
		}, "no such tuple"},
		{"duplicate retarget", whatif.Diff{
			Retarget: []whatif.TupleSpec{
				{Attribute: "income", Purpose: "service", Visibility: 1},
				{Attribute: "income", Purpose: "service", Visibility: 2},
			},
		}, "duplicate retarget"},
		{"remove and retarget same tuple", whatif.Diff{
			Remove:   []whatif.TupleRef{{Attribute: "income", Purpose: "service"}},
			Retarget: []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 1}},
		}, "both removed and retargeted"},
		{"add colliding with existing tuple", whatif.Diff{
			Add: []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 1}},
		}, "use retarget"},
		{"duplicate add", whatif.Diff{
			Add: []whatif.TupleSpec{
				{Attribute: "income", Purpose: "research", Visibility: 1},
				{Attribute: "income", Purpose: "research", Visibility: 2},
			},
		}, "duplicate add"},
		{"add and retarget same identity", whatif.Diff{
			Add:      []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 1}},
			Retarget: []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 2}},
		}, "both added and retargeted"},
		{"sensitivity for unknown attribute", whatif.Diff{
			Sensitivity: []whatif.SensitivityChange{{Attribute: "ssn", Value: 7}},
		}, "unknown attribute"},
		{"sensitivity for removed attribute", whatif.Diff{
			Remove:      []whatif.TupleRef{{Attribute: "contact", Purpose: "marketing"}},
			Sensitivity: []whatif.SensitivityChange{{Attribute: "contact", Value: 7}},
		}, "unknown attribute"},
		{"non-finite sensitivity", whatif.Diff{
			Sensitivity: []whatif.SensitivityChange{{Attribute: "income", Value: math.NaN()}},
		}, "finite"},
		{"negative sensitivity", whatif.Diff{
			Sensitivity: []whatif.SensitivityChange{{Attribute: "income", Value: -1}},
		}, "negative"},
		{"level off the scale", whatif.Diff{
			Retarget: []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 99}},
		}, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := whatif.ApplyDiff(livePolicy(), liveSens(), &tc.diff, "cand", privacy.DefaultScales())
			if err == nil {
				t.Fatalf("wanted error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestApplyDiffRetargetAmbiguous(t *testing.T) {
	hp := livePolicy()
	hp.Add("income", tup("service", 3, 3, 3)) // duplicate (income, service)
	d := whatif.Diff{Retarget: []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 1}}}
	_, _, _, err := whatif.ApplyDiff(hp, liveSens(), &d, "cand", privacy.DefaultScales())
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("wanted ambiguous-retarget error, got %v", err)
	}
	// Remove, by contrast, drops every duplicate.
	d = whatif.Diff{Remove: []whatif.TupleRef{{Attribute: "income", Purpose: "service"}}}
	shadow, _, _, err := whatif.ApplyDiff(hp, liveSens(), &d, "cand", privacy.DefaultScales())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shadow.Find("income", "service"); ok {
		t.Error("remove should drop every (income, service) tuple")
	}
}

func TestApplyDiffBuildsShadowWithoutMutatingLive(t *testing.T) {
	live := livePolicy()
	sens := liveSens()
	before := live.Entries()
	d := whatif.Diff{
		Add:         []whatif.TupleSpec{{Attribute: "ssn", Purpose: "service", Visibility: 1, Granularity: 1, Retention: 1}},
		Remove:      []whatif.TupleRef{{Attribute: "weight", Purpose: "research"}},
		Retarget:    []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 3, Granularity: 1, Retention: 1}},
		Sensitivity: []whatif.SensitivityChange{{Attribute: "ssn", Value: 9}},
	}
	shadow, shadowSens, affected, err := whatif.ApplyDiff(live, sens, &d, "cand", privacy.DefaultScales())
	if err != nil {
		t.Fatal(err)
	}
	wantAffected := []string{"income", "ssn", "weight"}
	if len(affected) != len(wantAffected) {
		t.Fatalf("affected = %v, want %v", affected, wantAffected)
	}
	for i := range affected {
		if affected[i] != wantAffected[i] {
			t.Fatalf("affected = %v, want %v", affected, wantAffected)
		}
	}
	if shadow.Name != "cand" {
		t.Errorf("shadow name %q", shadow.Name)
	}
	if _, ok := shadow.Find("weight", "research"); ok {
		t.Error("removed tuple still present in shadow")
	}
	if got, _ := shadow.Find("income", "service"); got.Visibility != 3 {
		t.Errorf("retargeted tuple = %v", got)
	}
	if _, ok := shadow.Find("ssn", "service"); !ok {
		t.Error("added tuple missing from shadow")
	}
	if shadowSens.Get("ssn") != 9 || shadowSens.Get("income") != 5 {
		t.Errorf("shadow sens = %v", shadowSens)
	}
	// The live inputs are untouched.
	after := live.Entries()
	if len(before) != len(after) {
		t.Fatalf("live policy mutated: %d tuples became %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("live policy tuple %d mutated: %v -> %v", i, before[i], after[i])
		}
	}
	if sens.Get("ssn") != 1 {
		t.Error("live sensitivities mutated")
	}
}

func TestDiffPoliciesRoundTrip(t *testing.T) {
	cur := livePolicy()
	curSens := liveSens()
	prop := privacy.NewHousePolicy("next")
	prop.Add("weight", tup("service", 3, 2, 2)) // retarget
	// (weight, research) removed
	prop.Add("income", tup("service", 2, 1, 1))  // unchanged
	prop.Add("income", tup("research", 1, 1, 1)) // added
	prop.Add("contact", tup("marketing", 1, 2, 1))
	propSens := privacy.AttributeSensitivities{"weight": 4, "income": 6, "contact": 2}

	d, err := whatif.DiffPolicies(cur, prop, curSens, propSens)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Add) != 1 || len(d.Remove) != 1 || len(d.Retarget) != 1 || len(d.Sensitivity) != 1 {
		t.Fatalf("diff = %+v", d)
	}
	shadow, shadowSens, _, err := whatif.ApplyDiff(cur, curSens, &d, "next", privacy.DefaultScales())
	if err != nil {
		t.Fatal(err)
	}
	if !shadow.Equal(prop) {
		t.Errorf("round trip mismatch:\nwant %v\ngot  %v", prop, shadow)
	}
	for _, a := range prop.Attributes() {
		if shadowSens.Get(a) != propSens.Get(a) {
			t.Errorf("Σ^%s = %g, want %g", a, shadowSens.Get(a), propSens.Get(a))
		}
	}
	// Identical documents: empty diff.
	d, err = whatif.DiffPolicies(cur, cur, curSens, curSens)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Errorf("self-diff not empty: %+v", d)
	}
	// Duplicate identities cannot be expressed.
	dup := livePolicy()
	dup.Add("income", tup("service", 3, 3, 3))
	if _, err := whatif.DiffPolicies(dup, prop, curSens, propSens); err == nil {
		t.Error("duplicate current policy should fail")
	}
	if _, err := whatif.DiffPolicies(cur, dup, curSens, propSens); err == nil {
		t.Error("duplicate proposed policy should fail")
	}
}

func TestRequestValidate(t *testing.T) {
	valid := whatif.Diff{Sensitivity: []whatif.SensitivityChange{{Attribute: "income", Value: 2}}}
	cases := []struct {
		name string
		req  whatif.Request
	}{
		{"NaN u", whatif.Request{Diff: valid, U: math.NaN()}},
		{"negative u", whatif.Request{Diff: valid, U: -1}},
		{"infinite u", whatif.Request{Diff: valid, U: math.Inf(1)}},
		{"NaN t", whatif.Request{Diff: valid, U: 1, T: math.NaN()}},
		{"infinite t", whatif.Request{Diff: valid, U: 1, T: math.Inf(-1)}},
		{"empty diff", whatif.Request{U: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.req.Validate(); err == nil {
				t.Error("wanted validation error")
			}
		})
	}
	ok := whatif.Request{Diff: valid, U: 1, T: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

// testPopulation synthesizes a deterministic provider population whose
// attributes match livePolicy.
func testPopulation(t *testing.T, seed uint64, n int) []*privacy.Prefs {
	t.Helper()
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service", "research"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
			{Name: "contact", Sensitivity: 2, Purposes: []privacy.Purpose{"marketing"}},
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return population.PrefsOf(gen.Generate(n))
}

func sortedClone(pop []*privacy.Prefs) []*privacy.Prefs {
	out := make([]*privacy.Prefs, len(pop))
	copy(out, pop)
	sort.SliceStable(out, func(i, j int) bool {
		return strings.ToLower(out[i].Provider) < strings.ToLower(out[j].Provider)
	})
	return out
}

func wantSummary(rep core.PopulationReport) whatif.Summary {
	return whatif.Summary{
		N:               rep.N,
		ViolatedCount:   rep.ViolatedCount,
		DefaultCount:    rep.DefaultCount,
		TotalViolations: rep.TotalViolations,
		PW:              rep.PW,
		PDefault:        rep.PDefault,
	}
}

// TestShadowEvaluationEquivalence is the property test of the satellite
// spec: for random populations and a spread of diffs, shadow evaluation
// must equal "mutate a clone, assess fully, diff" — bit-identically,
// TotalViolations included — under both the paper model and the
// implicit-zero ablation.
func TestShadowEvaluationEquivalence(t *testing.T) {
	diffs := map[string]whatif.Diff{
		"widen one tuple": {
			Retarget: []whatif.TupleSpec{{Attribute: "weight", Purpose: "service", Visibility: 3, Granularity: 2, Retention: 2}},
		},
		"narrow one tuple": {
			Retarget: []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 1, Granularity: 1, Retention: 1}},
		},
		"remove a purpose": {
			Remove: []whatif.TupleRef{{Attribute: "weight", Purpose: "research"}},
		},
		"add a purpose": {
			Add: []whatif.TupleSpec{{Attribute: "income", Purpose: "research", Visibility: 2, Granularity: 2, Retention: 2}},
		},
		"add a new attribute": {
			Add:         []whatif.TupleSpec{{Attribute: "ssn", Purpose: "service", Visibility: 2, Granularity: 2, Retention: 2}},
			Sensitivity: []whatif.SensitivityChange{{Attribute: "ssn", Value: 7}},
		},
		"rescale sigma": {
			Sensitivity: []whatif.SensitivityChange{{Attribute: "income", Value: 9}},
		},
		"compound": {
			Retarget:    []whatif.TupleSpec{{Attribute: "weight", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 2}},
			Remove:      []whatif.TupleRef{{Attribute: "contact", Purpose: "marketing"}},
			Add:         []whatif.TupleSpec{{Attribute: "income", Purpose: "marketing", Visibility: 1, Granularity: 1, Retention: 1}},
			Sensitivity: []whatif.SensitivityChange{{Attribute: "weight", Value: 1}},
		},
	}
	for _, opts := range []core.Options{{}, {DisableImplicitZero: true}} {
		name := "paper-model"
		if opts.DisableImplicitZero {
			name = "no-implicit-zero"
		}
		t.Run(name, func(t *testing.T) {
			for diffName, d := range diffs {
				t.Run(diffName, func(t *testing.T) {
					for _, seed := range []uint64{1, 7, 42} {
						pop := testPopulation(t, seed, 200)
						sorted := sortedClone(pop)
						req := &whatif.Request{Diff: d, U: 10, T: 1}
						resp, err := whatif.EvaluateOffline(livePolicy(), liveSens(), opts, pop, req)
						if err != nil {
							t.Fatal(err)
						}
						// Oracle: apply the diff to clones, assess both
						// populations from scratch in the same sorted order.
						shadowPol, shadowSens, _, err := whatif.ApplyDiff(livePolicy(), liveSens(), &d, "oracle", privacy.DefaultScales())
						if err != nil {
							t.Fatal(err)
						}
						liveA, err := core.NewAssessor(livePolicy(), liveSens(), opts)
						if err != nil {
							t.Fatal(err)
						}
						shadowA, err := core.NewAssessor(shadowPol, shadowSens, opts)
						if err != nil {
							t.Fatal(err)
						}
						wantCur := wantSummary(liveA.AssessPopulation(sorted))
						wantProp := wantSummary(shadowA.AssessPopulation(sorted))
						if resp.Current != wantCur {
							t.Errorf("seed %d: current %+v != oracle %+v", seed, resp.Current, wantCur)
						}
						if resp.Proposed != wantProp {
							t.Errorf("seed %d: proposed %+v != oracle %+v", seed, resp.Proposed, wantProp)
						}
						if resp.Affected+resp.MemoReused != resp.Current.N {
							t.Errorf("seed %d: affected %d + reused %d != N %d",
								seed, resp.Affected, resp.MemoReused, resp.Current.N)
						}
						if resp.ShadowVersion&whatif.ShadowVersionBit == 0 {
							t.Errorf("shadow version %#x lacks the shadow bit", resp.ShadowVersion)
						}
					}
				})
			}
		})
	}
}

// TestNarrowReuseWithoutImplicitZero pins the pruning behavior the memo
// acceptance criterion depends on: with the implicit-zero rule disabled, a
// diff on one attribute re-assesses only providers with explicit state on
// it, with no global fallback.
func TestNarrowReuseWithoutImplicitZero(t *testing.T) {
	opts := core.Options{DisableImplicitZero: true}
	pop := testPopulation(t, 3, 200)
	// Count providers with explicit state on "income".
	touching := 0
	for _, p := range pop {
		if p.TouchesAttribute("income") {
			touching++
		}
	}
	d := whatif.Diff{Retarget: []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 3, Granularity: 2, Retention: 2}}}
	resp, err := whatif.EvaluateOffline(livePolicy(), liveSens(), opts, pop, &whatif.Request{Diff: d, U: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.GlobalFallback {
		t.Error("no implicit zeros: a single-attribute diff must not trigger the global fallback")
	}
	if resp.Affected != touching {
		t.Errorf("affected = %d, want the %d providers touching income", resp.Affected, touching)
	}
	if resp.MemoReused != len(pop)-touching {
		t.Errorf("reused = %d, want %d", resp.MemoReused, len(pop)-touching)
	}
}

// TestGlobalFallbackUnderImplicitZero pins the exactness rule: widening a
// tuple past zero moves the implicit-zero conflicts of every provider
// without explicit preferences, so the engine must fall back to global
// re-assessment rather than reuse anything unsound.
func TestGlobalFallbackUnderImplicitZero(t *testing.T) {
	pop := testPopulation(t, 3, 100)
	d := whatif.Diff{Retarget: []whatif.TupleSpec{{Attribute: "income", Purpose: "service", Visibility: 3, Granularity: 2, Retention: 2}}}
	resp, err := whatif.EvaluateOffline(livePolicy(), liveSens(), core.Options{}, pop, &whatif.Request{Diff: d, U: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.GlobalFallback {
		t.Error("widening under implicit zeros must trigger the global fallback")
	}
	if resp.Affected != len(pop) || resp.MemoReused != 0 {
		t.Errorf("fallback must re-assess everyone: affected %d reused %d", resp.Affected, resp.MemoReused)
	}
}

func TestVerdictsAndBreakEven(t *testing.T) {
	pop := testPopulation(t, 5, 200)
	// Narrowing a policy can only shrink violations: verdict free.
	narrow := whatif.Diff{Retarget: []whatif.TupleSpec{{Attribute: "weight", Purpose: "service", Visibility: 0, Granularity: 0, Retention: 0}}}
	resp, err := whatif.EvaluateOffline(livePolicy(), liveSens(), core.Options{}, pop, &whatif.Request{Diff: narrow, U: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != whatif.VerdictFree {
		t.Errorf("narrowing verdict = %q, want free", resp.Verdict)
	}
	if resp.NFuture < resp.NCurrent {
		t.Errorf("narrowing lost providers: %d -> %d", resp.NCurrent, resp.NFuture)
	}

	// A drastic widening that defaults providers: justified iff T clears
	// Eq. 31, and the wire break-even must match economics.BreakEvenT.
	widen := whatif.Diff{
		Retarget: []whatif.TupleSpec{
			{Attribute: "weight", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3},
			{Attribute: "income", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3},
		},
		Sensitivity: []whatif.SensitivityChange{{Attribute: "income", Value: 50}, {Attribute: "weight", Value: 50}},
	}
	resp, err = whatif.EvaluateOffline(livePolicy(), liveSens(), core.Options{}, pop, &whatif.Request{Diff: widen, U: 10, T: 0})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NFuture >= resp.NCurrent {
		t.Skip("population did not lose providers under the drastic widening; economics untestable here")
	}
	if resp.Verdict != whatif.VerdictUnjustified {
		t.Errorf("T=0 with lost providers: verdict = %q, want unjustified", resp.Verdict)
	}
	if resp.NFuture > 0 {
		if resp.BreakEvenT == nil {
			t.Fatal("finite break-even expected")
		}
		// Re-run with T above break-even: justified.
		resp2, err := whatif.EvaluateOffline(livePolicy(), liveSens(), core.Options{}, pop,
			&whatif.Request{Diff: widen, U: 10, T: *resp.BreakEvenT + 1})
		if err != nil {
			t.Fatal(err)
		}
		if resp2.Verdict != whatif.VerdictJustified {
			t.Errorf("T above break-even: verdict = %q, want justified", resp2.Verdict)
		}
	}
}

func TestBreakEvenOmittedWhenEveryoneDefaults(t *testing.T) {
	// A tiny population of hair-trigger providers: any overshoot defaults
	// them all, so NFuture = 0 and no finite T pays.
	pop := []*privacy.Prefs{}
	for _, name := range []string{"a", "b", "c"} {
		p := privacy.NewPrefs(name, 0)
		p.Add("weight", tup("service", 0, 0, 0))
		pop = append(pop, p)
	}
	d := whatif.Diff{Retarget: []whatif.TupleSpec{{Attribute: "weight", Purpose: "service", Visibility: 3, Granularity: 3, Retention: 3}}}
	hp := privacy.NewHousePolicy("strict")
	hp.Add("weight", tup("service", 0, 0, 0))
	resp, err := whatif.EvaluateOffline(hp, nil, core.Options{}, pop, &whatif.Request{Diff: d, U: 10, T: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NFuture != 0 {
		t.Fatalf("NFuture = %d, want 0", resp.NFuture)
	}
	if resp.BreakEvenT != nil {
		t.Errorf("break-even must be omitted when no finite T pays, got %g", *resp.BreakEvenT)
	}
	if resp.Verdict != whatif.VerdictUnjustified {
		t.Errorf("verdict = %q, want unjustified", resp.Verdict)
	}
}

func TestEvaluateMemoPathEquivalence(t *testing.T) {
	pop := sortedClone(testPopulation(t, 11, 150))
	live, err := core.NewAssessor(livePolicy(), liveSens(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := &whatif.Request{
		Diff: whatif.Diff{Sensitivity: []whatif.SensitivityChange{{Attribute: "contact", Value: 8}}},
		U:    10, T: 1, Detail: true,
	}
	eng, err := whatif.NewEngine(live, liveSens(), core.Options{}, 17, req, privacy.DefaultScales())
	if err != nil {
		t.Fatal(err)
	}
	if eng.ShadowVersion() != 17|whatif.ShadowVersionBit {
		t.Errorf("shadow version = %#x", eng.ShadowVersion())
	}
	// The same population is built twice: live totals from columns
	// compiled up front (what the store keeps) and from the report
	// AssessProvider compiles afresh per call.
	var kernel, ref []*ledger.Row
	var sc core.Scratch
	for _, p := range pop {
		kernel = append(kernel, &ledger.Row{Prefs: p, Totals: live.AssessTotals(p, live.Compile(p), &sc)})
		rep := live.AssessProvider(p)
		ref = append(ref, &ledger.Row{Prefs: p, Totals: core.Totals{Violation: rep.Violation, Violated: rep.Violated, Defaults: rep.Defaults}})
	}
	base := eng.Evaluate(kernel)
	walked := eng.Evaluate(ref)
	if base.Current != walked.Current || base.Proposed != walked.Proposed {
		t.Errorf("kernel and reference live totals changed the answer:\nkernel %+v %+v\nref    %+v %+v",
			base.Current, base.Proposed, walked.Current, walked.Proposed)
	}
	if base.Verdict != walked.Verdict || base.Affected != walked.Affected || base.MemoReused != walked.MemoReused {
		t.Errorf("kernel and reference live totals changed verdict/counters")
	}
	if len(base.Segments) != 1 || base.Segments[0].Attribute != "contact" {
		t.Fatalf("segments = %+v", base.Segments)
	}
	if len(walked.Segments) != 1 || walked.Segments[0] != base.Segments[0] {
		t.Errorf("kernel and reference live totals changed segments: %+v vs %+v", walked.Segments, base.Segments)
	}

	// Without Detail, segments are withheld.
	req2 := &whatif.Request{Diff: req.Diff, U: 10, T: 1}
	eng2, err := whatif.NewEngine(live, liveSens(), core.Options{}, 17, req2, privacy.DefaultScales())
	if err != nil {
		t.Fatal(err)
	}
	if resp := eng2.Evaluate(kernel); len(resp.Segments) != 0 {
		t.Errorf("segments leaked without detail: %+v", resp.Segments)
	}
}

func TestNewEngineRejectsBadInput(t *testing.T) {
	live, err := core.NewAssessor(livePolicy(), liveSens(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := whatif.NewEngine(nil, nil, core.Options{}, 1, &whatif.Request{}, privacy.DefaultScales()); err == nil {
		t.Error("nil assessor accepted")
	}
	if _, err := whatif.NewEngine(live, liveSens(), core.Options{}, 1, &whatif.Request{U: 1}, privacy.DefaultScales()); err == nil {
		t.Error("empty diff accepted")
	}
	bad := &whatif.Request{U: math.NaN(), Diff: whatif.Diff{Sensitivity: []whatif.SensitivityChange{{Attribute: "income", Value: 2}}}}
	if _, err := whatif.NewEngine(live, liveSens(), core.Options{}, 1, bad, privacy.DefaultScales()); err == nil {
		t.Error("NaN U accepted")
	}
}
