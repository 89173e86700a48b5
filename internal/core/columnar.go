// The columnar assessment kernel (DESIGN.md §13): AssessCompiled walks the
// flattened per-provider preference columns against the flattened policy
// columns and produces exactly the ProviderReport the paper's Eq. 15 walk
// would (reference_test.go) — same pair order, same float-operation order,
// bit-identical results — with zero map iteration and zero heap allocation
// for providers with no violations. Conflicting providers allocate exactly
// two slices (the pairs and one shared dims backing array), built from a
// reusable scratch arena. It is the only assessor: every report, stored or
// ad hoc, comes from here.
package core

import (
	"repro/internal/privacy"
)

// Scratch is the reusable per-worker arena the columnar kernel accumulates
// conflicts into before materializing a report. A Scratch may be reused
// across any number of AssessCompiled and AssessRow calls but never shared
// between concurrent callers; the sharded stores keep one per shard (used
// under the shard's exclusive lock), and the certification and what-if
// fan-outs keep one per worker goroutine. The zero value is ready to use.
type Scratch struct {
	dims    []DimensionViolation
	pairs   []PairConflict
	pairOff []int // start offset of each pair's dims within dims
	// cols is the column buffer AssessRow compiles providers into when
	// they come without current columns.
	cols CompiledPrefs
}

// AssessCompiled runs the columnar kernel: one pass over the provider's
// compiled preference columns, visiting (preference, policy) tuple pairs in
// the reference enumeration order — attributes in sorted (= id) order,
// preference tuples in explicit-then-implicit order, policy tuples in
// insertion order — and computing every severity with the same
// multiplication chain as the Eq. 15 walk (Eq. 14: overshoot × Σ^a × s_i^a ×
// s_i^a[dim], left-associated), so the resulting report is bit-identical to
// it. The caller guarantees c was compiled against this
// assessor's policy (see AssessRow) and that sc is not shared concurrently.
//
//lint:deterministic the kernel must reproduce the reference assessment bit-for-bit; certification bytes depend on it
func (a *Assessor) AssessCompiled(c *CompiledPrefs, sc *Scratch) ProviderReport {
	cp := c.policy
	rep := ProviderReport{Provider: c.Provider, Threshold: c.Threshold}
	sc.dims = sc.dims[:0]
	sc.pairs = sc.pairs[:0]
	sc.pairOff = sc.pairOff[:0]
	for i, aid := range c.attrID {
		attrS := cp.attrSens[aid]
		sVal := c.sVal[i]
		start := cp.polStart[aid]
		for _, off := range c.covered(i) {
			j := start + off
			dimStart := len(sc.dims)
			var conf float64
			// The three ordered dimensions, unrolled in OrderedDimensions
			// order (V, G, R) — the conf accumulation order of the reference.
			if over := int(cp.polV[j]) - int(c.prefV[i]); over > 0 {
				sev := float64(over) * attrS * sVal * c.sV[i]
				sc.dims = append(sc.dims, DimensionViolation{
					Dimension: privacy.DimVisibility,
					PrefLevel: privacy.Level(c.prefV[i]),
					PolLevel:  privacy.Level(cp.polV[j]),
					Overshoot: over,
					Severity:  sev,
				})
				conf += sev
			}
			if over := int(cp.polG[j]) - int(c.prefG[i]); over > 0 {
				sev := float64(over) * attrS * sVal * c.sG[i]
				sc.dims = append(sc.dims, DimensionViolation{
					Dimension: privacy.DimGranularity,
					PrefLevel: privacy.Level(c.prefG[i]),
					PolLevel:  privacy.Level(cp.polG[j]),
					Overshoot: over,
					Severity:  sev,
				})
				conf += sev
			}
			if over := int(cp.polR[j]) - int(c.prefR[i]); over > 0 {
				sev := float64(over) * attrS * sVal * c.sR[i]
				sc.dims = append(sc.dims, DimensionViolation{
					Dimension: privacy.DimRetention,
					PrefLevel: privacy.Level(c.prefR[i]),
					PolLevel:  privacy.Level(cp.polR[j]),
					Overshoot: over,
					Severity:  sev,
				})
				conf += sev
			}
			if len(sc.dims) == dimStart {
				continue
			}
			rep.Violated = true
			rep.Violation += conf
			polPurpose := privacy.Purpose(cp.purposes.Name(cp.polPurpose[j]))
			sc.pairOff = append(sc.pairOff, dimStart)
			sc.pairs = append(sc.pairs, PairConflict{
				Attribute: cp.attrs.Name(aid),
				Purpose:   polPurpose,
				Pref: privacy.Tuple{
					Purpose:     c.purpose[i],
					Visibility:  privacy.Level(c.prefV[i]),
					Granularity: privacy.Level(c.prefG[i]),
					Retention:   privacy.Level(c.prefR[i]),
				},
				Policy: privacy.Tuple{
					Purpose:     polPurpose,
					Visibility:  privacy.Level(cp.polV[j]),
					Granularity: privacy.Level(cp.polG[j]),
					Retention:   privacy.Level(cp.polR[j]),
				},
				ImplicitZero: c.implicit[i],
				Conf:         conf,
			})
		}
	}
	// Materialize out of the arena: exact-size copies so memoizing layers
	// can retain the report while the scratch is reused. Pairs stays nil
	// (JSON null, like the reference) when nothing conflicted.
	if n := len(sc.pairs); n > 0 {
		dims := make([]DimensionViolation, len(sc.dims))
		copy(dims, sc.dims)
		pairs := make([]PairConflict, n)
		copy(pairs, sc.pairs)
		for k := range pairs {
			lo := sc.pairOff[k]
			hi := len(dims)
			if k+1 < n {
				hi = sc.pairOff[k+1]
			}
			pairs[k].Dims = dims[lo:hi:hi]
		}
		rep.Pairs = pairs
	}
	rep.Defaults = rep.Violation > rep.Threshold
	return rep
}

// AssessRow assesses one provider with the columnar kernel. c is used when
// it was compiled against this assessor's policy; when it is nil or stale
// (compiled under a since-swapped policy), p is compiled into a column
// buffer sc owns. A nil sc uses a fresh arena.
func (a *Assessor) AssessRow(p *privacy.Prefs, c *CompiledPrefs, sc *Scratch) ProviderReport {
	if sc == nil {
		sc = new(Scratch)
	}
	if !c.CurrentFor(a) {
		c = &sc.cols
		a.compileInto(c, p)
	}
	return a.AssessCompiled(c, sc)
}

// Compiled returns the assessor's flattened policy (built at construction).
func (a *Assessor) Compiled() *CompiledPolicy { return a.compiled }
