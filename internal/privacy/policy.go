package privacy

import (
	"fmt"
	"sort"
	"strings"
)

// PolicyTuple is one element ⟨a, p⟩ of a house policy HP ⊆ Policy (Eqs. 2-3):
// an attribute name paired with a privacy tuple describing how the house
// collects, exposes and retains that attribute for one purpose.
type PolicyTuple struct {
	Attribute string
	Tuple     Tuple
}

// String renders the policy tuple as ⟨attr, tuple⟩.
func (pt PolicyTuple) String() string {
	return fmt.Sprintf("<%s, %s>", pt.Attribute, pt.Tuple)
}

// HousePolicy is a particular house policy HP: a set of ⟨attribute, tuple⟩
// pairs (Eq. 3). A house may hold multiple tuples for the same attribute
// (e.g. one per purpose). Policies are value-like: mutating methods return
// the receiver for chaining, and Clone produces an independent copy for
// what-if scenarios (Sec. 9-10).
type HousePolicy struct {
	// Name labels the policy version (useful when auditing policy changes,
	// the social-network scenario of Secs. 1 and 10).
	Name string

	entries []PolicyTuple
	byAttr  map[string][]int // attribute → indexes into entries
}

// NewHousePolicy returns an empty policy with the given version name.
func NewHousePolicy(name string) *HousePolicy {
	return &HousePolicy{Name: name, byAttr: make(map[string][]int)}
}

// canonAttr normalizes attribute names; the model is case-insensitive on
// attribute identity, matching SQL identifier conventions. The exported
// spelling lives in intern.go (CanonAttr).
func canonAttr(a string) string { return CanonAttr(a) }

// Add appends a policy tuple for attribute attr. Duplicate
// (attribute, purpose) pairs are allowed by the set model but usually
// indicate a mistake; AddUnique rejects them.
func (hp *HousePolicy) Add(attr string, t Tuple) *HousePolicy {
	a := canonAttr(attr)
	t = t.Normalize()
	hp.byAttr[a] = append(hp.byAttr[a], len(hp.entries))
	hp.entries = append(hp.entries, PolicyTuple{Attribute: a, Tuple: t})
	return hp
}

// AddUnique appends a policy tuple, rejecting a second tuple for the same
// (attribute, purpose) pair.
func (hp *HousePolicy) AddUnique(attr string, t Tuple) error {
	a := canonAttr(attr)
	t = t.Normalize()
	for _, i := range hp.byAttr[a] {
		if hp.entries[i].Tuple.SamePurpose(t) {
			return fmt.Errorf("privacy: policy %q already has a tuple for attribute %q purpose %q",
				hp.Name, a, t.Purpose)
		}
	}
	hp.Add(a, t)
	return nil
}

// Len returns the number of policy tuples in HP.
func (hp *HousePolicy) Len() int { return len(hp.entries) }

// Entries returns a copy of all policy tuples.
func (hp *HousePolicy) Entries() []PolicyTuple {
	out := make([]PolicyTuple, len(hp.entries))
	copy(out, hp.entries)
	return out
}

// ForAttribute extracts HP^j, the house policy for collecting attribute j
// (Eq. 4).
func (hp *HousePolicy) ForAttribute(attr string) []PolicyTuple {
	a := canonAttr(attr)
	idx := hp.byAttr[a]
	out := make([]PolicyTuple, 0, len(idx))
	for _, i := range idx {
		out = append(out, hp.entries[i])
	}
	return out
}

// Find returns the policy tuple for (attribute, purpose), if present.
func (hp *HousePolicy) Find(attr string, pr Purpose) (Tuple, bool) {
	a := canonAttr(attr)
	pr = pr.Normalize()
	for _, i := range hp.byAttr[a] {
		if hp.entries[i].Tuple.Purpose == pr {
			return hp.entries[i].Tuple, true
		}
	}
	return Tuple{}, false
}

// Attributes returns the sorted set of attributes HP covers.
func (hp *HousePolicy) Attributes() []string {
	out := make([]string, 0, len(hp.byAttr))
	for a := range hp.byAttr {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Purposes returns the sorted set of purposes appearing anywhere in HP.
func (hp *HousePolicy) Purposes() []Purpose {
	seen := map[Purpose]bool{}
	for _, e := range hp.entries {
		seen[e.Tuple.Purpose] = true
	}
	out := make([]Purpose, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PurposesFor returns the sorted purposes HP declares for one attribute —
// the purpose set the implicit-zero rule of Sec. 5 is evaluated against.
func (hp *HousePolicy) PurposesFor(attr string) []Purpose {
	a := canonAttr(attr)
	seen := map[Purpose]bool{}
	for _, i := range hp.byAttr[a] {
		seen[hp.entries[i].Tuple.Purpose] = true
	}
	out := make([]Purpose, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the policy under a new name.
func (hp *HousePolicy) Clone(name string) *HousePolicy {
	cp := NewHousePolicy(name)
	for _, e := range hp.entries {
		cp.Add(e.Attribute, e.Tuple)
	}
	return cp
}

// Widen returns a copy of the policy in which every tuple for attribute attr
// (all purposes) is widened by delta along dimension d. Missing attributes
// are a no-op. This is the elementary policy-expansion step of Sec. 9.
func (hp *HousePolicy) Widen(name, attr string, d Dimension, delta Level) *HousePolicy {
	a := canonAttr(attr)
	cp := NewHousePolicy(name)
	for _, e := range hp.entries {
		t := e.Tuple
		if e.Attribute == a {
			t = t.Widen(d, delta)
		}
		cp.Add(e.Attribute, t)
	}
	return cp
}

// WidenAll returns a copy of the policy with every tuple widened by delta
// along dimension d.
func (hp *HousePolicy) WidenAll(name string, d Dimension, delta Level) *HousePolicy {
	cp := NewHousePolicy(name)
	for _, e := range hp.entries {
		cp.Add(e.Attribute, e.Tuple.Widen(d, delta))
	}
	return cp
}

// AddPurpose returns a copy of the policy that additionally collects
// attribute attr for a new purpose with tuple t — the other elementary
// expansion step (widening the purpose set rather than a level).
func (hp *HousePolicy) AddPurpose(name, attr string, t Tuple) *HousePolicy {
	cp := hp.Clone(name)
	cp.Add(attr, t)
	return cp
}

// Validate checks every tuple against the scales.
func (hp *HousePolicy) Validate(sc Scales) error {
	if err := checkNames(hp.Name); err != nil {
		return err
	}
	for _, e := range hp.entries {
		if e.Attribute == "" {
			return fmt.Errorf("privacy: policy %q has a tuple with an empty attribute", hp.Name)
		}
		if e.Tuple.Purpose == "" {
			return fmt.Errorf("privacy: policy %q attribute %q has a tuple with no purpose", hp.Name, e.Attribute)
		}
		if err := checkNames(e.Attribute, string(e.Tuple.Purpose)); err != nil {
			return fmt.Errorf("privacy: policy %q: %w", hp.Name, err)
		}
		if err := e.Tuple.Validate(sc); err != nil {
			return fmt.Errorf("privacy: policy %q attribute %q: %w", hp.Name, e.Attribute, err)
		}
	}
	return nil
}

// Equal reports whether two policies contain the same multiset of tuples
// (names are ignored).
func (hp *HousePolicy) Equal(o *HousePolicy) bool {
	if hp.Len() != o.Len() {
		return false
	}
	key := func(pt PolicyTuple) string { return fmt.Sprintf("%s|%s", pt.Attribute, pt.Tuple) }
	count := map[string]int{}
	for _, e := range hp.entries {
		count[key(e)]++
	}
	for _, e := range o.entries {
		count[key(e)]--
		if count[key(e)] < 0 {
			return false
		}
	}
	return true
}

// String renders a compact multi-line listing of the policy.
func (hp *HousePolicy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %q (%d tuples)", hp.Name, len(hp.entries))
	for _, a := range hp.Attributes() {
		for _, e := range hp.ForAttribute(a) {
			fmt.Fprintf(&b, "\n  %s %s", e.Attribute, e.Tuple)
		}
	}
	return b.String()
}

// checkNames refuses names the policy DSL cannot carry. The DSL writes
// names between double quotes and reads them back byte for byte with no
// escapes, so a name holding '"' or a newline would be renamed or refused
// when a checkpoint reloads; refusing it here fails the registration
// instead.
func checkNames(names ...string) error {
	for _, n := range names {
		if strings.ContainsAny(n, "\"\n") {
			return fmt.Errorf("privacy: name %q holds a '\"' or a newline, which the policy DSL cannot carry", n)
		}
	}
	return nil
}
