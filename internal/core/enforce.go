// Per-datum enforcement lookups over the compiled columns (DESIGN.md §15):
// the query executor (internal/query) resolves each disclosed cell to one
// (attribute, policy tuple) coordinate at plan time, then asks here for the
// most restrictive covering preference levels per row. Both lookups are
// id-indexed walks over the flattened columns of compile.go — no map
// iteration and no purpose matching on the hot path (the covered-offset
// lists precomputed at registration already encode Eq. 13 comparability).
// Like AssessRow, they compile afresh when handed nil or stale columns.
package core

import (
	"slices"

	"repro/internal/privacy"
)

// PolicyTupleRef locates the single policy tuple governing one
// (attribute, purpose) coordinate: the attribute's dense id, the tuple's
// offset within the attribute's policy range (the value preference
// covered-offset lists hold), and the tuple itself.
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
// coordinate ref: a binary search into the attribute's run of the compiled
// columns, then a membership test of ref's offset in each tuple's covered
// list. c is used when it is current for this assessor; otherwise p is
// compiled afresh. Positions index the compiled columns.
func (a *Assessor) BindingFor(p *privacy.Prefs, c *CompiledPrefs, ref PolicyTupleRef) PrefBinding {
	if !c.CurrentFor(a) {
		c = a.Compile(p)
	}
	var b PrefBinding
	lo, _ := slices.BinarySearch(c.attrID, ref.AttrID)
	for i := lo; i < len(c.attrID) && c.attrID[i] == ref.AttrID; i++ {
		if !c.comparable(i, ref.Index) {
			continue
		}
		b.fold(privacy.Level(c.prefV[i]), privacy.Level(c.prefG[i]), privacy.Level(c.prefR[i]), i, c.implicit[i])
	}
	return b
}

// BindingTuple materializes the binding tuple at position at (one of the
// VAt/GAt/RAt of a binding BindingFor(p, c, ref) returned).
func (a *Assessor) BindingTuple(p *privacy.Prefs, c *CompiledPrefs, at int) privacy.Tuple {
	if !c.CurrentFor(a) {
		c = a.Compile(p)
	}
	return privacy.Tuple{
		Purpose:     c.purpose[at],
		Visibility:  privacy.Level(c.prefV[at]),
		Granularity: privacy.Level(c.prefG[at]),
		Retention:   privacy.Level(c.prefR[at]),
	}
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
