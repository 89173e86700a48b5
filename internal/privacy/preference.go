package privacy

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// PrefTuple is one element ⟨i, a, p⟩ of ProviderPref_i (Eq. 5), with the
// provider identity held by the enclosing Prefs.
type PrefTuple struct {
	Attribute string
	Tuple     Tuple
}

// String renders the preference tuple as ⟨attr, tuple⟩.
func (pt PrefTuple) String() string {
	return fmt.Sprintf("<%s, %s>", pt.Attribute, pt.Tuple)
}

// sensKey addresses a sensitivity: per-attribute default (purpose "") or a
// per-(attribute, purpose) override, since Eq. 10 ties sensitivities to a
// specific purpose.
type sensKey struct {
	attr    string
	purpose Purpose
}

// Prefs holds everything the model attaches to one data provider i:
// the preference tuples ProviderPref_i (Eq. 5), the sensitivity elements
// σ_i (Eq. 11), and the default threshold v_i (Def. 4).
type Prefs struct {
	// Provider identifies the data provider (the subscript i).
	Provider string
	// Threshold is v_i: the provider defaults when Violation_i exceeds it.
	// The zero value means "never defaults" is NOT intended — use
	// NoDefaultThreshold for that; a zero threshold means any positive
	// violation causes default.
	Threshold float64

	entries []PrefTuple
	byAttr  map[string][]int
	sens    map[sensKey]Sensitivity
}

// NoDefaultThreshold is a v_i so large the provider effectively never
// defaults.
const NoDefaultThreshold = math.MaxFloat64

// NewPrefs returns an empty preference set for a provider with threshold v.
func NewPrefs(provider string, threshold float64) *Prefs {
	return &Prefs{
		Provider:  provider,
		Threshold: threshold,
		byAttr:    make(map[string][]int),
		sens:      make(map[sensKey]Sensitivity),
	}
}

// Add appends a preference tuple for attribute attr.
func (p *Prefs) Add(attr string, t Tuple) *Prefs {
	a := canonAttr(attr)
	t = t.Normalize()
	p.byAttr[a] = append(p.byAttr[a], len(p.entries))
	p.entries = append(p.entries, PrefTuple{Attribute: a, Tuple: t})
	return p
}

// SetSensitivity records the provider's default σ_i^attr, applied to every
// purpose without a more specific override.
func (p *Prefs) SetSensitivity(attr string, s Sensitivity) *Prefs {
	p.sens[sensKey{canonAttr(attr), ""}] = s
	return p
}

// SetPurposeSensitivity records a σ_i^attr override for one purpose,
// honouring the paper's note that "all of these sensitivities are tied to a
// specific purpose" (Sec. 6.2).
func (p *Prefs) SetPurposeSensitivity(attr string, pr Purpose, s Sensitivity) *Prefs {
	p.sens[sensKey{canonAttr(attr), pr.Normalize()}] = s
	return p
}

// Sensitivity resolves σ_i^attr for a purpose: the per-purpose override if
// present, else the per-attribute default, else UnitSensitivity.
func (p *Prefs) Sensitivity(attr string, pr Purpose) Sensitivity {
	a := canonAttr(attr)
	if s, ok := p.sens[sensKey{a, pr.Normalize()}]; ok {
		return s
	}
	if s, ok := p.sens[sensKey{a, ""}]; ok {
		return s
	}
	return UnitSensitivity
}

// Len returns the number of explicit preference tuples.
func (p *Prefs) Len() int { return len(p.entries) }

// Entries returns a copy of all explicit preference tuples.
func (p *Prefs) Entries() []PrefTuple {
	out := make([]PrefTuple, len(p.entries))
	copy(out, p.entries)
	return out
}

// ForAttribute extracts ProviderPref_i^j (Eq. 6): the provider's explicit
// preference tuples for attribute j.
func (p *Prefs) ForAttribute(attr string) []PrefTuple {
	a := canonAttr(attr)
	idx := p.byAttr[a]
	out := make([]PrefTuple, 0, len(idx))
	for _, i := range idx {
		out = append(out, p.entries[i])
	}
	return out
}

// Find returns the explicit preference tuple for (attribute, purpose), if
// present.
func (p *Prefs) Find(attr string, pr Purpose) (Tuple, bool) {
	a := canonAttr(attr)
	pr = pr.Normalize()
	for _, i := range p.byAttr[a] {
		if p.entries[i].Tuple.Purpose == pr {
			return p.entries[i].Tuple, true
		}
	}
	return Tuple{}, false
}

// Attributes returns the sorted attributes with explicit preferences.
func (p *Prefs) Attributes() []string {
	out := make([]string, 0, len(p.byAttr))
	for a := range p.byAttr {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// TouchesAttribute reports whether the provider holds any explicit state
// for attribute attr: preference tuples or recorded σ elements. A provider
// that touches nothing on an attribute is assessed exactly like the empty
// preference set there (unit sensitivities, implicit zeros for every house
// purpose) — the invariant the what-if engine's affected-set pruning
// (internal/whatif) rests on.
func (p *Prefs) TouchesAttribute(attr string) bool {
	a := canonAttr(attr)
	if len(p.byAttr[a]) > 0 {
		return true
	}
	for k := range p.sens {
		if k.attr == a {
			return true
		}
	}
	return false
}

// SensitivityKey addresses one explicitly recorded σ element; Purpose ""
// is the per-attribute default.
type SensitivityKey struct {
	Attribute string
	Purpose   Purpose
}

// SensitivityKeys returns the keys of every explicitly recorded σ element
// in sorted (attribute, purpose) order — including attributes that carry
// sensitivities but no preference tuples, which still weigh implicit-zero
// conflicts (Sec. 5) and must survive encoding round trips.
func (p *Prefs) SensitivityKeys() []SensitivityKey {
	out := make([]SensitivityKey, 0, len(p.sens))
	for k := range p.sens {
		out = append(out, SensitivityKey{Attribute: k.attr, Purpose: k.purpose})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attribute != out[j].Attribute {
			return out[i].Attribute < out[j].Attribute
		}
		return out[i].Purpose < out[j].Purpose
	})
	return out
}

// EffectiveFor returns the preference tuples that apply to attribute attr
// given the set of purposes the house uses that attribute for. Explicit
// tuples are returned as stated; for every house purpose with no matching
// explicit tuple (under m), the implicit zero tuple ⟨pr, 0, 0, 0⟩ of Sec. 5
// is synthesized when implicitZero is true. m nil means equality matching.
func (p *Prefs) EffectiveFor(attr string, housePurposes []Purpose, m Matcher, implicitZero bool) []PrefTuple {
	out, _ := p.AppendEffective(nil, attr, housePurposes, m, implicitZero)
	return out
}

// AppendEffective appends EffectiveFor's tuples to dst and returns the
// extended slice with the number of explicit tuples, which come first. It
// reads the provider's tuples in place, so a caller that hands it a reused
// buffer enumerates without allocating. With m nil, coverage is equality
// of normalized purposes: stored tuples are normalized by Add, so each
// house purpose is normalized once and compared as a string.
func (p *Prefs) AppendEffective(dst []PrefTuple, attr string, housePurposes []Purpose, m Matcher, implicitZero bool) ([]PrefTuple, int) {
	a := canonAttr(attr)
	idx := p.byAttr[a]
	for _, i := range idx {
		dst = append(dst, p.entries[i])
	}
	if !implicitZero {
		return dst, len(idx)
	}
	for _, hp := range housePurposes {
		norm := hp.Normalize()
		covered := false
		for _, i := range idx {
			pr := p.entries[i].Tuple.Purpose
			if m == nil && pr == norm || m != nil && m.Covers(pr, hp) {
				covered = true
				break
			}
		}
		if !covered {
			dst = append(dst, PrefTuple{Attribute: a, Tuple: ZeroTuple(norm)})
		}
	}
	return dst, len(idx)
}

// Clone returns a deep copy of the preferences, optionally renaming the
// provider (empty keeps the name).
func (p *Prefs) Clone(provider string) *Prefs {
	if provider == "" {
		provider = p.Provider
	}
	cp := NewPrefs(provider, p.Threshold)
	for _, e := range p.entries {
		cp.Add(e.Attribute, e.Tuple)
	}
	for k, v := range p.sens {
		cp.sens[k] = v
	}
	return cp
}

// Validate checks tuples against the scales, every sensitivity weight
// against [0, MaxSensitivity] and the threshold for a finite value >= 0.
func (p *Prefs) Validate(sc Scales) error {
	if strings.TrimSpace(p.Provider) == "" {
		return fmt.Errorf("privacy: preferences have no provider identity")
	}
	if err := checkNames(p.Provider); err != nil {
		return err
	}
	if !(p.Threshold >= 0) || math.IsInf(p.Threshold, 1) {
		// NaN fails every comparison; NaN and +Inf would also leave the
		// provider's report without a JSON form.
		return fmt.Errorf("privacy: provider %q has default threshold %g; want a finite number >= 0 (NoDefaultThreshold never defaults)", p.Provider, p.Threshold)
	}
	for _, e := range p.entries {
		if e.Tuple.Purpose == "" {
			return fmt.Errorf("privacy: provider %q attribute %q has a tuple with no purpose", p.Provider, e.Attribute)
		}
		if err := checkNames(e.Attribute, string(e.Tuple.Purpose)); err != nil {
			return fmt.Errorf("privacy: provider %q: %w", p.Provider, err)
		}
		if err := e.Tuple.Validate(sc); err != nil {
			return fmt.Errorf("privacy: provider %q attribute %q: %w", p.Provider, e.Attribute, err)
		}
	}
	// An invalid sensitivity is reported in sorted key order, so the error
	// names the same element on every run. Registration validates every
	// provider, so the common all-valid case is settled by a count over
	// the map and sorts nothing.
	invalid := 0
	for k, s := range p.sens {
		if checkNames(k.attr, string(k.purpose)) != nil || s.Validate() != nil {
			invalid++
		}
	}
	if invalid == 0 {
		return nil
	}
	for _, k := range p.SensitivityKeys() {
		if err := checkNames(k.Attribute, string(k.Purpose)); err != nil {
			return fmt.Errorf("privacy: provider %q: %w", p.Provider, err)
		}
		if err := p.sens[sensKey{k.Attribute, k.Purpose}].Validate(); err != nil {
			return fmt.Errorf("privacy: provider %q attribute %q: %w", p.Provider, k.Attribute, err)
		}
	}
	return nil
}

// String renders a compact listing of the provider's preferences.
func (p *Prefs) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefs %q (threshold %g, %d tuples)", p.Provider, p.Threshold, len(p.entries))
	for _, a := range p.Attributes() {
		for _, e := range p.ForAttribute(a) {
			fmt.Fprintf(&b, "\n  %s %s sens=%s", e.Attribute, e.Tuple, p.Sensitivity(e.Attribute, e.Tuple.Purpose))
		}
	}
	return b.String()
}
