package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/generalize"
	"repro/internal/population"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// BaselinePoint is one row of E8: at a given policy width, the internal-risk
// metrics (the paper's model) next to the external-risk metrics of the
// k-anonymous release (which cannot see policy-preference mismatch at all).
type BaselinePoint struct {
	PolicyWidth   int
	PW            float64 // internal: P(W)
	PDefault      float64 // internal: P(Default)
	KAnonK        int     // external: min equivalence-class size of the release
	LDiversity    int     // external: distinct l-diversity of the release
	PrecisionLoss float64
}

// BaselineResult is the E8 contrast series.
type BaselineResult struct {
	N      int
	K      int
	Points []BaselinePoint
}

// BaselineContrast runs E8. A microdata table is released once under
// full-domain k-anonymity; then the house policy widens step by step. The
// release-time guarantees (k, l, precision) are untouched by the widening —
// they measure re-identification risk of the published artifact — while the
// paper's internal metrics degrade monotonically. This realizes the Sec. 2
// discussion: anonymization research "assume[s] risk comes from forces
// external to the system", whereas the violation model tracks the
// internal policy/preference mismatch.
func BaselineContrast(n int, seed uint64, k, widenings int) (*BaselineResult, error) {
	providers, sigma, hp, err := expansionPopulation(n, seed)
	if err != nil {
		return nil, err
	}
	pop := population.PrefsOf(providers)

	// Build the microdata table for the release.
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
		},
	}, seed+7)
	if err != nil {
		return nil, err
	}
	schema, err := population.MicrodataSchema()
	if err != nil {
		return nil, err
	}
	rows := make([]relational.Row, n)
	for i := range rows {
		if rows[i], err = schema.CheckRow(gen.MicrodataRow(fmt.Sprintf("p%04d", i))); err != nil {
			return nil, err
		}
	}
	ageH, err := generalize.NewNumericHierarchy(10, 2, 3)
	if err != nil {
		return nil, err
	}
	cityH, err := generalize.NewCategoryHierarchy(map[string]string{
		"calgary": "alberta", "edmonton": "alberta",
		"toronto": "ontario", "montreal": "quebec", "vancouver": "bc",
		"alberta": "canada", "ontario": "canada", "quebec": "canada", "bc": "canada",
	})
	if err != nil {
		return nil, err
	}
	qi := map[string]generalize.Hierarchy{"age": ageH, "city": cityH}
	an, err := generalize.NewAnonymizer(schema, rows, qi, "condition")
	if err != nil {
		return nil, err
	}
	release, err := an.SearchK(k)
	if err != nil {
		return nil, err
	}
	hs := []generalize.Hierarchy{qi["age"], qi["city"]}

	res := &BaselineResult{N: n, K: k}
	dims := []privacy.Dimension{privacy.DimVisibility, privacy.DimGranularity, privacy.DimRetention}
	policy := hp
	for wstep := 0; wstep <= widenings; wstep++ {
		assessor, err := core.NewAssessor(policy, sigma, core.Options{})
		if err != nil {
			return nil, err
		}
		rep := assessor.AssessPopulation(pop)
		res.Points = append(res.Points, BaselinePoint{
			PolicyWidth:   wstep,
			PW:            rep.PW,
			PDefault:      rep.PDefault,
			KAnonK:        release.MinClassSize(),
			LDiversity:    release.DistinctLDiversity(),
			PrecisionLoss: release.PrecisionLoss(hs),
		})
		policy = policy.WidenAll(fmt.Sprintf("w%d", wstep+1), dims[wstep%len(dims)], 1)
	}
	return res, nil
}

// Fprint renders the contrast table.
func (r *BaselineResult) Fprint(w io.Writer) error {
	fmt.Fprintf(w, "E8 — internal vs external risk (N=%d, release anonymized to k=%d)\n", r.N, r.K)
	fmt.Fprintln(w, "internal metrics respond to policy widening; release-time metrics cannot")
	fmt.Fprintln(w)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.PolicyWidth),
			fmt.Sprintf("%.4f", p.PW),
			fmt.Sprintf("%.4f", p.PDefault),
			fmt.Sprintf("%d", p.KAnonK),
			fmt.Sprintf("%d", p.LDiversity),
			fmt.Sprintf("%.3f", p.PrecisionLoss),
		})
	}
	return WriteTable(w, []string{
		"widenings", "P(W)", "P(Default)", "release k", "release l", "precision loss",
	}, rows)
}
