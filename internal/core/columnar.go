// The columnar assessment kernel (DESIGN.md §13): AssessCompiled walks the
// flattened per-provider preference columns against the flattened policy
// columns and produces exactly the ProviderReport the paper's Eq. 15 walk
// would (reference_test.go) — same pair order, same float-operation order,
// bit-identical results — with zero map iteration and zero heap allocation
// for providers with no violations. Conflicting providers allocate exactly
// two slices (the pairs and one shared dims backing array), built from a
// reusable scratch arena; AssessTotals skips them for callers that keep
// only the totals. It is the only assessor: every report and every total
// comes from here.
package core

import (
	"repro/internal/privacy"
)

// Scratch is the reusable per-worker arena the columnar kernel accumulates
// conflicts into before materializing a report. A Scratch may be reused
// across any number of AssessCompiled, AssessRow and AssessTotals calls
// but never shared between concurrent callers; the provider table keeps
// one for single upserts (used under its owner's exclusive lock), and
// every fan-out keeps one per key range. The zero value is
// ready to use.
type Scratch struct {
	dims    []DimensionViolation
	pairs   []PairConflict
	pairOff []int // start offset of each pair's dims within dims
	// cols is the column buffer AssessRow and AssessTotals compile
	// providers into when they come without current columns.
	cols CompiledPrefs
}

// AssessCompiled runs the columnar kernel and copies the conflicts it
// recorded out of sc at exact size. The caller guarantees c was compiled
// against this assessor's policy (see AssessRow) and that sc is not shared
// concurrently.
func (a *Assessor) AssessCompiled(c *CompiledPrefs, sc *Scratch) ProviderReport {
	rep := a.kernel(c, sc)
	rep.Pairs = sc.materialize()
	return rep
}

// kernel is one pass over the provider's compiled preference columns,
// visiting (preference, policy) tuple pairs in the reference enumeration
// order — attributes in sorted (= id) order, preference tuples in
// explicit-then-implicit order, policy tuples in insertion order — and
// computing every severity with the same multiplication chain as the Eq. 15
// walk (Eq. 14: overshoot × Σ^a × s_i^a × s_i^a[dim], left-associated), so
// the resulting report is bit-identical to it. It returns the report
// without Pairs and leaves every conflicting pair and its dimensions
// recorded in sc for materialize.
//
//lint:deterministic the kernel must reproduce the reference assessment bit-for-bit; certification bytes depend on it
func (a *Assessor) kernel(c *CompiledPrefs, sc *Scratch) ProviderReport {
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
	rep.Defaults = rep.Violation > rep.Threshold
	return rep
}

// materialize copies the pairs the last kernel pass recorded out of the
// arena at exact size, so a report outlives the next reuse of the
// scratch: two allocations, the pairs and one dims backing array
// they share. It returns nil (JSON null, like the reference) when nothing
// conflicted.
func (sc *Scratch) materialize() []PairConflict {
	n := len(sc.pairs)
	if n == 0 {
		return nil
	}
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
	return pairs
}

// AssessRow assesses one provider with the columnar kernel. c is used when
// it was compiled against this assessor's policy; when it is nil or stale
// (compiled under a since-swapped policy), p is compiled into a column
// buffer sc owns. A nil sc uses a fresh arena.
func (a *Assessor) AssessRow(p *privacy.Prefs, c *CompiledPrefs, sc *Scratch) ProviderReport {
	if sc == nil {
		sc = new(Scratch)
	}
	return a.AssessCompiled(a.columns(p, c, sc), sc)
}

// AssessTotals is AssessRow for callers that keep only w_i, Violation_i and
// default_i: it takes the columns the same way but skips materialize, so
// the conflicts stay in the arena and, once sc is warm, nothing is
// allocated.
func (a *Assessor) AssessTotals(p *privacy.Prefs, c *CompiledPrefs, sc *Scratch) Totals {
	rep := a.kernel(a.columns(p, c, sc), sc)
	return Totals{Violation: rep.Violation, Violated: rep.Violated, Defaults: rep.Defaults}
}

// columns returns c when it is current for a, and otherwise p compiled
// into sc's column buffer.
func (a *Assessor) columns(p *privacy.Prefs, c *CompiledPrefs, sc *Scratch) *CompiledPrefs {
	if c.CurrentFor(a) {
		return c
	}
	a.compileInto(&sc.cols, p)
	return &sc.cols
}

// Compiled returns the assessor's flattened policy (built at construction).
func (a *Assessor) Compiled() *CompiledPolicy { return a.compiled }
