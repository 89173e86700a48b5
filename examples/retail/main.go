// Retail example: a loyalty programme weighs selling purchase histories to a
// data broker. It contrasts the paper's internal-risk audit with the
// release-time k-anonymity view: the anonymized release is "safe" by the
// external metric while the policy expansion behind it violates member
// preferences and triggers defaults — the Sec. 2 internal-vs-external
// distinction made concrete.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/economics"
	"repro/internal/generalize"
	"repro/internal/population"
	"repro/internal/privacy"
	"repro/internal/relational"
)

func main() {
	purposes := []privacy.Purpose{"loyalty"}
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "purchases", Sensitivity: 4, Purposes: purposes},
			{Name: "income", Sensitivity: 5, Purposes: purposes},
		},
	}, 777)
	if err != nil {
		log.Fatal(err)
	}
	members := gen.Generate(3000)
	pop := population.PrefsOf(members)
	sigma := gen.AttributeSensitivities()

	// Current policy: purchase data used in-house for the loyalty purpose.
	current := privacy.NewHousePolicy("loyalty-v1")
	current.Add("purchases", privacy.Tuple{Purpose: "loyalty", Visibility: 2, Granularity: 2, Retention: 3})
	current.Add("income", privacy.Tuple{Purpose: "loyalty", Visibility: 1, Granularity: 1, Retention: 2})

	// Proposal: share with a broker — third-party visibility, full
	// granularity, year-long retention.
	proposed := current.Clone("broker-deal")
	proposed = proposed.Widen("broker-deal", "purchases", privacy.DimVisibility, 1)
	proposed = proposed.Widen("broker-deal", "purchases", privacy.DimGranularity, 1)
	proposed = proposed.Widen("broker-deal", "purchases", privacy.DimRetention, 1)

	const baseU = 12.0 // margin per member per year
	w, err := economics.Compare(current, proposed, sigma, core.Options{}, pop, baseU)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("internal-risk audit (the paper's model):")
	fmt.Printf("  current : P(W)=%.4f P(Default)=%.4f\n", w.Current.PW, w.Current.PDefault)
	fmt.Printf("  proposed: P(W)=%.4f P(Default)=%.4f (%d members would walk)\n",
		w.Proposed.PW, w.Proposed.PDefault, w.Proposed.DefaultCount)
	fmt.Printf("  the broker must pay more than %.2f per member per year to break even (Eq. 31)\n\n", w.BreakEvenT)

	// Meanwhile the release itself is k-anonymous — the external metric sees
	// no problem with the very same deal.
	schema, err := population.MicrodataSchema()
	if err != nil {
		log.Fatal(err)
	}
	microdata := make([]relational.Row, 1000)
	for i := range microdata {
		if microdata[i], err = schema.CheckRow(gen.MicrodataRow(fmt.Sprintf("m%04d", i))); err != nil {
			log.Fatal(err)
		}
	}
	ageH, err := generalize.NewNumericHierarchy(10, 2, 3)
	if err != nil {
		log.Fatal(err)
	}
	cityH, err := generalize.NewCategoryHierarchy(map[string]string{
		"calgary": "west", "edmonton": "west", "vancouver": "west",
		"toronto": "east", "montreal": "east",
		"west": "canada", "east": "canada",
	})
	if err != nil {
		log.Fatal(err)
	}
	an, err := generalize.NewAnonymizer(schema, microdata,
		map[string]generalize.Hierarchy{"age": ageH, "city": cityH}, "income")
	if err != nil {
		log.Fatal(err)
	}
	release, err := an.SearchK(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("external-risk view (release-time anonymization):")
	fmt.Printf("  released %d rows at generalization levels %v\n", len(release.Rows), release.LevelVector)
	fmt.Printf("  k-anonymity: k=%d  distinct l-diversity: l=%d\n", release.MinClassSize(), release.DistinctLDiversity())
	fmt.Println("  → the release itself re-identifies nobody, yet the policy behind it")
	fmt.Println("    violates member preferences: the two risk models measure different things.")

	// What the deal does to the membership if it goes ahead.
	steps := []economics.Step{{
		Label:        "sign broker deal",
		Apply:        func(*privacy.HousePolicy) *privacy.HousePolicy { return proposed },
		ExtraUtility: 3.0, // what the broker actually offers per member
	}}
	sc := &economics.Scenario{BasePolicy: current, AttrSens: sigma, BaseUtility: baseU}
	points, err := sc.Run(pop, steps)
	if err != nil {
		log.Fatal(err)
	}
	after := points[len(points)-1]
	fmt.Printf("\nif signed at T=3.00/member: members %d → %d, utility %.0f → %.0f, justified: %v\n",
		points[0].NFuture, after.NFuture, points[0].UtilityFuture, after.UtilityFuture, after.Justified)
}
