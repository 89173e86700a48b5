package population

import "repro/internal/privacy"

// The perfbench shape: the provider population and the two house policies
// the benchmark harness serves. The harness is its own module and keeps its
// own copy (perfbench/dataset.go, generatorConfig and policyDSL, is the
// source of these two); the Go benchmarks and the allocation pins in this
// module draw from here, so they measure the shape the harness measures.

// BenchConfig is the perfbench provider population: one attribute per
// table column, each with the purposes the bench policies use.
func BenchConfig() Config {
	svc, res := privacy.Purpose("service"), privacy.Purpose("research")
	return Config{Attributes: []AttributeSpec{
		{Name: "provider", Sensitivity: 2, Purposes: []privacy.Purpose{svc}},
		{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{svc, res}},
		{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{svc, res}},
		{Name: "age", Sensitivity: 2, Purposes: []privacy.Purpose{svc}},
	}}
}

// BenchPolicyDSL is the perfbench house policy as DSL text: four
// attributes, six tuples, the perfbench Σ. Policy A (weightResearchVis
// "third-party") and B ("world") differ in one tuple, the swap the
// harness's audit-policy workload runs.
func BenchPolicyDSL(name, weightResearchVis string) string {
	return `policy "` + name + `" {
  attr provider {
    tuple purpose=service visibility=house granularity=specific retention=year
  }
  attr weight {
    tuple purpose=service visibility=house granularity=specific retention=year
    tuple purpose=research visibility=` + weightResearchVis + ` granularity=partial retention=month
  }
  attr income {
    tuple purpose=service visibility=house granularity=partial retention=year
    tuple purpose=research visibility=third-party granularity=partial retention=month
  }
  attr age {
    tuple purpose=service visibility=house granularity=specific retention=year
  }
  sensitivity provider 2
  sensitivity weight 4
  sensitivity income 5
  sensitivity age 2
}
`
}
