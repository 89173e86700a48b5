// Per-datum enforcement lookups over the compiled columns (DESIGN.md §15):
// the query executor (internal/query) resolves each disclosed cell to one
// (attribute, policy tuple) coordinate at plan time, then asks here for the
// most restrictive covering preference levels per row. Both lookups are
// id-indexed walks over the flattened columns of compile.go — no map
// iteration and no purpose matching on the hot path (the cover masks
// precomputed at registration already encode Eq. 13 comparability) — with
// the reference preference walk as the fallback for stale or unmaskable
// compilations, mirroring AssessRow's dispatch.
package core

import (
	"sort"

	"repro/internal/privacy"
)

// PolicyTupleRef locates the single policy tuple governing one
// (attribute, purpose) coordinate: the attribute's dense id, the tuple's
// offset within the attribute's policy range (the bit position preference
// cover masks are keyed on), and the tuple itself.
type PolicyTupleRef struct {
	Attr   string // canonical attribute name
	AttrID uint32
	Index  uint32 // offset within the attribute's policy range
	Tuple  privacy.Tuple
}

// FindPolicyTuple resolves the governing policy tuple for an
// (attribute, purpose) pair under the assessor's matcher semantics: an
// exact-purpose tuple wins first (in policy insertion order), then — with a
// lattice matcher — the first tuple whose stated purpose covers the
// requested one. This is the plan-time gate: no tuple means the purpose is
// unstated for the attribute and the access must be refused outright.
func (a *Assessor) FindPolicyTuple(attr string, pr privacy.Purpose) (PolicyTupleRef, bool) {
	cp := a.compiled
	id, ok := cp.AttrID(attr)
	if !ok {
		return PolicyTupleRef{}, false
	}
	pr = pr.Normalize()
	start, end := cp.polStart[id], cp.polStart[id+1]
	for j := start; j < end; j++ {
		if privacy.Purpose(cp.purposes.Name(cp.polPurpose[j])) == pr {
			return cp.tupleRef(id, j), true
		}
	}
	if m := a.opts.Matcher; m != nil {
		for j := start; j < end; j++ {
			if m.Covers(privacy.Purpose(cp.purposes.Name(cp.polPurpose[j])), pr) {
				return cp.tupleRef(id, j), true
			}
		}
	}
	return PolicyTupleRef{}, false
}

// tupleRef materializes the ref for policy column j of attribute id.
func (cp *CompiledPolicy) tupleRef(id, j uint32) PolicyTupleRef {
	return PolicyTupleRef{
		Attr:   cp.attrs.Name(id),
		AttrID: id,
		Index:  j - cp.polStart[id],
		Tuple: privacy.Tuple{
			Purpose:     privacy.Purpose(cp.purposes.Name(cp.polPurpose[j])),
			Visibility:  privacy.Level(cp.polV[j]),
			Granularity: privacy.Level(cp.polG[j]),
			Retention:   privacy.Level(cp.polR[j]),
		},
	}
}

// PrefBinding is the per-datum preference constraint at one policy
// coordinate: along each ordered dimension, the minimum level over the
// provider's preference tuples comparable (Eq. 13) with the policy tuple,
// plus where the binding tuple sits, so an enforcement decision can be
// traced to its violating (pref, policy) pair. Found is false when no
// preference tuple covers the coordinate (only possible with implicit
// zeros disabled or a purpose outside the provider's stated set) — the
// policy alone then bounds the disclosure.
type PrefBinding struct {
	Found   bool
	V, G, R privacy.Level
	// VAt/GAt/RAt locate the preference tuples that set each minimum (the
	// first in reference enumeration order on ties). Only EXPLAIN needs the
	// tuples themselves, so the per-row fold keeps positions and
	// BindingTuple materializes them on demand.
	VAt, GAt, RAt int
	// VImplicit/GImplicit/RImplicit mark binding tuples synthesized by the
	// Sec. 5 implicit-zero rule.
	VImplicit, GImplicit, RImplicit bool
}

// BindingFor computes the preference binding for provider p at policy
// coordinate ref. When c is current for this assessor the walk is the
// columnar fast path — a binary search into the attribute's run plus a
// cover-mask test per tuple; otherwise the reference effective-preference
// walk is used. Both paths enumerate tuples in the same order, so the
// levels, the implicit flags and the tuples BindingTuple returns are
// identical; the positions index each path's own enumeration.
func (a *Assessor) BindingFor(p *privacy.Prefs, c *CompiledPrefs, ref PolicyTupleRef) PrefBinding {
	if a.columnar(c, ref) {
		return c.binding(ref)
	}
	return a.bindingReference(p, ref)
}

// BindingTuple materializes the binding tuple at position at (one of the
// VAt/GAt/RAt of a binding BindingFor(p, c, ref) returned).
func (a *Assessor) BindingTuple(p *privacy.Prefs, c *CompiledPrefs, ref PolicyTupleRef, at int) privacy.Tuple {
	if a.columnar(c, ref) {
		return privacy.Tuple{
			Purpose:     c.purpose[at],
			Visibility:  privacy.Level(c.prefV[at]),
			Granularity: privacy.Level(c.prefG[at]),
			Retention:   privacy.Level(c.prefR[at]),
		}
	}
	return a.effectivePrefs(p, ref.Attr)[at].Tuple
}

// columnar reports whether c can answer for ref: compiled against this
// assessor's policy, with ref inside the cover-mask width.
func (a *Assessor) columnar(c *CompiledPrefs, ref PolicyTupleRef) bool {
	return c.CurrentFor(a) && ref.Index < maxPolicyTuplesPerAttr
}

// binding is the columnar fast path: fold per-dimension minima over the
// attribute's compiled tuples whose cover mask includes the policy tuple.
// Positions index the compiled columns.
func (c *CompiledPrefs) binding(ref PolicyTupleRef) PrefBinding {
	var b PrefBinding
	bit := uint64(1) << ref.Index
	lo := sort.Search(len(c.attrID), func(i int) bool { return c.attrID[i] >= ref.AttrID })
	for i := lo; i < len(c.attrID) && c.attrID[i] == ref.AttrID; i++ {
		if c.cover[i]&bit == 0 {
			continue
		}
		b.fold(privacy.Level(c.prefV[i]), privacy.Level(c.prefG[i]), privacy.Level(c.prefR[i]), i, c.implicit[i])
	}
	return b
}

// bindingReference is the fallback: the same fold over the reference
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
	for idx, pref := range a.effectivePrefs(p, ref.Attr) {
		if !m.Covers(pref.Tuple.Purpose, ref.Tuple.Purpose) {
			continue
		}
		t := pref.Tuple
		b.fold(t.Visibility, t.Granularity, t.Retention, idx, idx >= explicit)
	}
	return b
}

// fold accumulates one covering preference tuple, at position at, into the
// binding, keeping strict minima so the first tuple in enumeration order
// wins ties.
func (b *PrefBinding) fold(v, g, r privacy.Level, at int, implicit bool) {
	if !b.Found {
		*b = PrefBinding{
			Found: true,
			V:     v, G: g, R: r,
			VAt: at, GAt: at, RAt: at,
			VImplicit: implicit, GImplicit: implicit, RImplicit: implicit,
		}
		return
	}
	if v < b.V {
		b.V, b.VAt, b.VImplicit = v, at, implicit
	}
	if g < b.G {
		b.G, b.GAt, b.GImplicit = g, at, implicit
	}
	if r < b.R {
		b.R, b.RAt, b.RImplicit = r, at, implicit
	}
}
