package policydsl

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/privacy"
)

// Render produces DSL text for a document; Parse(Render(doc)) is equivalent
// to doc (levels render as scale names where possible). Policy and provider
// names are written between quotes byte for byte, the way the lexer reads
// them back; attribute names and purposes are written bare when they lex as
// one identifier and quoted otherwise.
func Render(doc *Document) string {
	var b strings.Builder
	sc := doc.Scales
	if sc.Visibility == nil {
		sc = privacy.DefaultScales()
	}
	levelName := func(d privacy.Dimension, l privacy.Level) string {
		s := sc.For(d)
		if s != nil && s.Contains(l) {
			return s.Name(l)
		}
		return fmt.Sprintf("%d", int(l))
	}
	writeTuple := func(indent string, t privacy.Tuple) {
		fmt.Fprintf(&b, "%stuple purpose=%s visibility=%s granularity=%s retention=%s\n",
			indent, word(string(t.Purpose)),
			levelName(privacy.DimVisibility, t.Visibility),
			levelName(privacy.DimGranularity, t.Granularity),
			levelName(privacy.DimRetention, t.Retention))
	}

	if doc.Policy != nil {
		fmt.Fprintf(&b, "policy \"%s\" {\n", doc.Policy.Name)
		for _, attr := range doc.Policy.Attributes() {
			fmt.Fprintf(&b, "  attr %s {\n", word(attr))
			for _, e := range doc.Policy.ForAttribute(attr) {
				writeTuple("    ", e.Tuple)
			}
			b.WriteString("  }\n")
		}
		attrs := make([]string, 0, len(doc.AttrSens))
		for a := range doc.AttrSens {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			fmt.Fprintf(&b, "  sensitivity %s %g\n", word(a), doc.AttrSens[a])
		}
		b.WriteString("}\n")
	}

	for _, prov := range doc.Providers {
		fmt.Fprintf(&b, "\nprovider \"%s\" threshold %g {\n", prov.Provider, prov.Threshold)
		for _, attr := range providerAttrs(prov) {
			fmt.Fprintf(&b, "  attr %s {\n", word(attr))
			// Render the per-attribute default sensitivity when it is not
			// the unit default.
			purposes := map[privacy.Purpose]bool{}
			for _, e := range prov.ForAttribute(attr) {
				purposes[e.Tuple.Purpose] = true
			}
			for _, k := range prov.SensitivityKeys() {
				if k.Attribute == attr && k.Purpose != "" {
					purposes[k.Purpose] = true
				}
			}
			if s := prov.Sensitivity(attr, ""); s != privacy.UnitSensitivity {
				fmt.Fprintf(&b, "    sens value=%g v=%g g=%g r=%g\n",
					s.Value, s.Visibility, s.Granularity, s.Retention)
			}
			// Per-purpose overrides that differ from the default.
			def := prov.Sensitivity(attr, "")
			prs := make([]string, 0, len(purposes))
			for pr := range purposes {
				prs = append(prs, string(pr))
			}
			sort.Strings(prs)
			for _, pr := range prs {
				if s := prov.Sensitivity(attr, privacy.Purpose(pr)); s != def {
					fmt.Fprintf(&b, "    sens purpose=%s value=%g v=%g g=%g r=%g\n",
						word(pr), s.Value, s.Visibility, s.Granularity, s.Retention)
				}
			}
			for _, e := range prov.ForAttribute(attr) {
				writeTuple("    ", e.Tuple)
			}
			b.WriteString("  }\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// word renders an attribute name or purpose: bare when it lexes as one
// identifier, quoted otherwise (a parsed name never holds '"' or a newline).
func word(s string) string {
	if isIdent(s) {
		return s
	}
	return `"` + s + `"`
}

// providerAttrs returns the sorted union of a provider's tuple-bearing and
// sensitivity-bearing attributes: an attribute can carry a σ element with
// no explicit tuples (it still weighs implicit-zero conflicts), and both
// encoders must render it or the element is lost on the round trip.
func providerAttrs(prov *privacy.Prefs) []string {
	attrs := prov.Attributes()
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		seen[a] = true
	}
	for _, k := range prov.SensitivityKeys() {
		if !seen[k.Attribute] {
			seen[k.Attribute] = true
			attrs = append(attrs, k.Attribute)
		}
	}
	sort.Strings(attrs)
	return attrs
}

// JSON interchange types. Levels are numeric; the scales give them meaning.

// TupleJSON is a privacy tuple in interchange form.
type TupleJSON struct {
	Purpose     string `json:"purpose"`
	Visibility  int    `json:"visibility"`
	Granularity int    `json:"granularity"`
	Retention   int    `json:"retention"`
}

// PolicyJSON is a house policy in interchange form.
type PolicyJSON struct {
	Name   string                 `json:"name"`
	Tuples map[string][]TupleJSON `json:"tuples"` // attribute → tuples
	Sens   map[string]float64     `json:"sensitivity,omitempty"`
}

// SensJSON is a σ element in interchange form.
type SensJSON struct {
	Purpose     string  `json:"purpose,omitempty"` // empty = attribute default
	Value       float64 `json:"value"`
	Visibility  float64 `json:"v"`
	Granularity float64 `json:"g"`
	Retention   float64 `json:"r"`
}

// ProviderJSON is one provider's preferences in interchange form.
type ProviderJSON struct {
	Name      string                 `json:"name"`
	Threshold float64                `json:"threshold"`
	Tuples    map[string][]TupleJSON `json:"tuples"`
	Sens      map[string][]SensJSON  `json:"sens,omitempty"`
}

// DocumentJSON is the whole corpus in interchange form.
type DocumentJSON struct {
	Policy    *PolicyJSON    `json:"policy,omitempty"`
	Providers []ProviderJSON `json:"providers,omitempty"`
}

func tupleToJSON(t privacy.Tuple) TupleJSON {
	return TupleJSON{
		Purpose:     string(t.Purpose),
		Visibility:  int(t.Visibility),
		Granularity: int(t.Granularity),
		Retention:   int(t.Retention),
	}
}

func tupleFromJSON(j TupleJSON) privacy.Tuple {
	return privacy.Tuple{
		Purpose:     privacy.Purpose(j.Purpose).Normalize(),
		Visibility:  privacy.Level(j.Visibility),
		Granularity: privacy.Level(j.Granularity),
		Retention:   privacy.Level(j.Retention),
	}
}

// PolicyToJSON converts a house policy (plus the house Σ vector, which may
// be nil) to interchange form. Exported for the persistence layers — the
// snapshot corpus and the WAL's policy records share this codec.
func PolicyToJSON(hp *privacy.HousePolicy, sens privacy.AttributeSensitivities) *PolicyJSON {
	pj := &PolicyJSON{Name: hp.Name, Tuples: map[string][]TupleJSON{}}
	for _, e := range hp.Entries() {
		pj.Tuples[e.Attribute] = append(pj.Tuples[e.Attribute], tupleToJSON(e.Tuple))
	}
	if len(sens) > 0 {
		pj.Sens = map[string]float64(sens)
	}
	return pj
}

// PolicyFromJSON rebuilds a house policy (and Σ vector) from interchange
// form, validated against sc.
func PolicyFromJSON(pj *PolicyJSON, sc privacy.Scales) (*privacy.HousePolicy, privacy.AttributeSensitivities, error) {
	hp := privacy.NewHousePolicy(pj.Name)
	for _, a := range sortedKeys(pj.Tuples) {
		for _, tj := range pj.Tuples[a] {
			hp.Add(a, tupleFromJSON(tj))
		}
	}
	// Set canonicalizes the attribute, so two keys that differ only in
	// case resolve in sorted key order, not map order.
	sens := privacy.AttributeSensitivities{}
	for _, a := range sortedKeys(pj.Sens) {
		sens.Set(a, pj.Sens[a])
	}
	if err := hp.Validate(sc); err != nil {
		return nil, nil, err
	}
	return hp, sens, nil
}

// sortedKeys returns m's keys in ascending order, the order every decoder
// walks an interchange map in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ProviderToJSON converts one provider's preferences to interchange form.
func ProviderToJSON(prov *privacy.Prefs) ProviderJSON {
	vj := ProviderJSON{
		Name:      prov.Provider,
		Threshold: prov.Threshold,
		Tuples:    map[string][]TupleJSON{},
		Sens:      map[string][]SensJSON{},
	}
	for _, e := range prov.Entries() {
		vj.Tuples[e.Attribute] = append(vj.Tuples[e.Attribute], tupleToJSON(e.Tuple))
	}
	for _, attr := range providerAttrs(prov) {
		if s := prov.Sensitivity(attr, ""); s != privacy.UnitSensitivity {
			vj.Sens[attr] = append(vj.Sens[attr], SensJSON{
				Value: s.Value, Visibility: s.Visibility,
				Granularity: s.Granularity, Retention: s.Retention,
			})
		}
		def := prov.Sensitivity(attr, "")
		purposes := map[privacy.Purpose]bool{}
		for _, e := range prov.ForAttribute(attr) {
			purposes[e.Tuple.Purpose] = true
		}
		for _, k := range prov.SensitivityKeys() {
			if k.Attribute == attr && k.Purpose != "" {
				purposes[k.Purpose] = true
			}
		}
		prs := make([]string, 0, len(purposes))
		for pr := range purposes {
			prs = append(prs, string(pr))
		}
		sort.Strings(prs)
		for _, pr := range prs {
			if s := prov.Sensitivity(attr, privacy.Purpose(pr)); s != def {
				vj.Sens[attr] = append(vj.Sens[attr], SensJSON{
					Purpose: pr,
					Value:   s.Value, Visibility: s.Visibility,
					Granularity: s.Granularity, Retention: s.Retention,
				})
			}
		}
	}
	if len(vj.Sens) == 0 {
		vj.Sens = nil
	}
	return vj
}

// ProviderFromJSON rebuilds one provider's preferences from interchange
// form, validated against sc.
func ProviderFromJSON(pj ProviderJSON, sc privacy.Scales) (*privacy.Prefs, error) {
	prov := privacy.NewPrefs(pj.Name, pj.Threshold)
	for _, a := range sortedKeys(pj.Tuples) {
		for _, tj := range pj.Tuples[a] {
			prov.Add(a, tupleFromJSON(tj))
		}
	}
	// The setters canonicalize the attribute, so two keys that differ only
	// in case resolve in sorted key order, not map order.
	for _, a := range sortedKeys(pj.Sens) {
		for _, sj := range pj.Sens[a] {
			s := privacy.Sensitivity{
				Value: sj.Value, Visibility: sj.Visibility,
				Granularity: sj.Granularity, Retention: sj.Retention,
			}
			if sj.Purpose == "" {
				prov.SetSensitivity(a, s)
			} else {
				prov.SetPurposeSensitivity(a, privacy.Purpose(sj.Purpose), s)
			}
		}
	}
	if err := prov.Validate(sc); err != nil {
		return nil, err
	}
	return prov, nil
}

// MarshalJSON encodes the document.
func MarshalJSON(doc *Document) ([]byte, error) {
	out := DocumentJSON{}
	if doc.Policy != nil {
		out.Policy = PolicyToJSON(doc.Policy, doc.AttrSens)
	}
	for _, prov := range doc.Providers {
		out.Providers = append(out.Providers, ProviderToJSON(prov))
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON decodes a document and validates it against the default
// scales.
func UnmarshalJSON(data []byte) (*Document, error) {
	var in DocumentJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("policydsl: %w", err)
	}
	doc := &Document{Scales: privacy.DefaultScales(), AttrSens: privacy.AttributeSensitivities{}}
	if in.Policy != nil {
		hp, sens, err := PolicyFromJSON(in.Policy, doc.Scales)
		if err != nil {
			return nil, err
		}
		doc.Policy = hp
		doc.AttrSens = sens
	}
	for _, pj := range in.Providers {
		prov, err := ProviderFromJSON(pj, doc.Scales)
		if err != nil {
			return nil, err
		}
		doc.Providers = append(doc.Providers, prov)
	}
	return doc, nil
}
