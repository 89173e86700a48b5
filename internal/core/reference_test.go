package core

import (
	"repro/internal/privacy"
)

// The row walks below are the paper's equations written directly over the
// maps of privacy.HousePolicy and privacy.Prefs — no interning, no
// columns, no covered-offset lists. They are the oracles the columnar
// kernel (AssessCompiled, AssessRow, BindingFor, BindingTuple) is tested
// against bit for bit, and they exist nowhere else.

// effectiveReference returns the provider's preference tuples for one
// attribute, including implicit zero tuples for uncovered house purposes:
// the house purposes recomputed from the policy, and coverage always
// decided by a Matcher (EqualityMatcher when none is configured), not by
// the compiled path's string equality.
func (a *Assessor) effectiveReference(p *privacy.Prefs, attr string) []privacy.PrefTuple {
	m := a.opts.Matcher
	if m == nil {
		m = privacy.EqualityMatcher{}
	}
	return p.EffectiveFor(attr, a.policy.PurposesFor(attr), m, !a.opts.DisableImplicitZero)
}

// compileReference is the column builder the columnar layout was defined
// by: it appends every column tuple by tuple, matching purposes through
// the Matcher and re-deriving each attribute's enumeration from the policy.
// Compile must produce exactly its columns.
func (a *Assessor) compileReference(p *privacy.Prefs) *CompiledPrefs {
	cp := a.compiled
	c := &CompiledPrefs{policy: cp, covStart: []uint32{0}}
	if p == nil {
		return c
	}
	c.Provider, c.Threshold = p.Provider, p.Threshold
	m := a.opts.Matcher
	if m == nil {
		m = privacy.EqualityMatcher{}
	}
	for id := 0; id < cp.attrs.Len(); id++ {
		attr := cp.attrs.Name(uint32(id))
		start, end := cp.polStart[id], cp.polStart[id+1]
		if start == end {
			continue
		}
		explicit := len(p.ForAttribute(attr))
		for idx, pref := range a.effectiveReference(p, attr) {
			n := len(c.covers)
			for j := start; j < end; j++ {
				if m.Covers(pref.Tuple.Purpose, privacy.Purpose(cp.purposes.Name(cp.polPurpose[j]))) {
					c.covers = append(c.covers, j-start)
				}
			}
			if len(c.covers) == n {
				continue // never comparable; contributes nothing (Eq. 13)
			}
			sens := p.Sensitivity(attr, pref.Tuple.Purpose)
			c.attrID = append(c.attrID, uint32(id))
			c.prefV = append(c.prefV, int32(pref.Tuple.Visibility))
			c.prefG = append(c.prefG, int32(pref.Tuple.Granularity))
			c.prefR = append(c.prefR, int32(pref.Tuple.Retention))
			c.sVal = append(c.sVal, sens.Value)
			c.sV = append(c.sV, sens.Visibility)
			c.sG = append(c.sG, sens.Granularity)
			c.sR = append(c.sR, sens.Retention)
			c.covStart = append(c.covStart, uint32(len(c.covers)))
			c.implicit = append(c.implicit, idx >= explicit)
			c.purpose = append(c.purpose, pref.Tuple.Purpose)
		}
	}
	return c
}

// assessReference produces the complete report for one provider, walking
// every (preference, policy) tuple pair as Eq. 15 prescribes.
func (a *Assessor) assessReference(p *privacy.Prefs) ProviderReport {
	rep := ProviderReport{Provider: p.Provider, Threshold: p.Threshold}
	for _, attr := range a.policy.Attributes() {
		pols := a.policy.ForAttribute(attr)
		explicit := map[privacy.Purpose]bool{}
		for _, e := range p.ForAttribute(attr) {
			explicit[e.Tuple.Purpose] = true
		}
		for _, pref := range a.effectiveReference(p, attr) {
			sens := p.Sensitivity(attr, pref.Tuple.Purpose)
			for _, pol := range pols {
				if !Comp(pref.Attribute, pref.Tuple, pol.Attribute, pol.Tuple, a.opts.Matcher) {
					continue
				}
				pc := PairConflict{
					Attribute:    attr,
					Purpose:      pol.Tuple.Purpose,
					Pref:         pref.Tuple,
					Policy:       pol.Tuple,
					ImplicitZero: !explicit[pref.Tuple.Purpose],
				}
				attrS := a.attrSens.Get(attr)
				for _, d := range privacy.OrderedDimensions {
					over := Diff(pref.Tuple.Get(d), pol.Tuple.Get(d))
					if over == 0 {
						continue
					}
					sev := float64(over) * attrS * sens.Value * sens.Dim(d)
					pc.Dims = append(pc.Dims, DimensionViolation{
						Dimension: d,
						PrefLevel: pref.Tuple.Get(d),
						PolLevel:  pol.Tuple.Get(d),
						Overshoot: over,
						Severity:  sev,
					})
					pc.Conf += sev
				}
				if len(pc.Dims) > 0 {
					rep.Violated = true
					rep.Violation += pc.Conf
					rep.Pairs = append(rep.Pairs, pc)
				}
			}
		}
	}
	rep.Defaults = rep.Violation > rep.Threshold
	return rep
}

// violatedReference computes w_i (Def. 1): whether some comparable
// (preference, policy) tuple pair has the policy strictly exceeding the
// preference along visibility, granularity or retention.
func (a *Assessor) violatedReference(p *privacy.Prefs) bool {
	for _, attr := range a.policy.Attributes() {
		pols := a.policy.ForAttribute(attr)
		for _, pref := range a.effectiveReference(p, attr) {
			for _, pol := range pols {
				if Comp(pref.Attribute, pref.Tuple, pol.Attribute, pol.Tuple, a.opts.Matcher) &&
					pref.Tuple.ExceededBy(pol.Tuple) {
					return true
				}
			}
		}
	}
	return false
}

// bindingReference is the binding fold over the reference
// effective-preference enumeration (explicit tuples in insertion order,
// then implicit zeros in sorted house-purpose order). Positions index that
// enumeration.
func (a *Assessor) bindingReference(p *privacy.Prefs, ref PolicyTupleRef) PrefBinding {
	var b PrefBinding
	if p == nil {
		return b
	}
	m := a.opts.Matcher
	if m == nil {
		m = privacy.EqualityMatcher{}
	}
	explicit := len(p.ForAttribute(ref.Attr))
	for idx, pref := range a.effectiveReference(p, ref.Attr) {
		if !m.Covers(pref.Tuple.Purpose, ref.Tuple.Purpose) {
			continue
		}
		t := pref.Tuple
		b.fold(t.Visibility, t.Granularity, t.Retention, idx, idx >= explicit)
	}
	return b
}

// comparablePairs counts the (preference, policy) tuple pairs Eq. 13 deems
// comparable — the entries compiled cover storage must hold, one each.
func (a *Assessor) comparablePairs(p *privacy.Prefs) int {
	n := 0
	for _, attr := range a.policy.Attributes() {
		pols := a.policy.ForAttribute(attr)
		for _, pref := range a.effectiveReference(p, attr) {
			for _, pol := range pols {
				if Comp(pref.Attribute, pref.Tuple, pol.Attribute, pol.Tuple, a.opts.Matcher) {
					n++
				}
			}
		}
	}
	return n
}
