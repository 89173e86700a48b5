package policydsl

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/privacy"
)

// Render produces DSL text for a document; Parse(Render(doc)) is equivalent
// to doc (levels render as scale names where possible). Policy and provider
// names are written between quotes byte for byte, the way the lexer reads
// them back; attribute names and purposes are written bare when they lex as
// one identifier and quoted otherwise. Numbers are written as %g writes
// them.
func Render(doc *Document) string {
	r := renderer{sc: doc.Scales}
	if r.sc.Visibility == nil {
		r.sc = privacy.DefaultScales()
	}
	if doc.Policy != nil {
		r.policy(doc.Policy, doc.AttrSens)
	}
	for _, prov := range doc.Providers {
		r.provider(prov)
	}
	return r.b.String()
}

type renderer struct {
	b      strings.Builder
	sc     privacy.Scales
	num    [32]byte
	tuples []privacy.PrefTuple // one attribute's tuples, reused
}

func (r *renderer) policy(hp *privacy.HousePolicy, sens privacy.AttributeSensitivities) {
	r.b.WriteString("policy \"")
	r.b.WriteString(hp.Name)
	r.b.WriteString("\" {\n")
	for _, attr := range hp.Attributes() {
		r.b.WriteString("  attr ")
		r.word(attr)
		r.b.WriteString(" {\n")
		for _, e := range hp.ForAttribute(attr) {
			r.tuple(e.Tuple)
		}
		r.b.WriteString("  }\n")
	}
	attrs := make([]string, 0, len(sens))
	for a := range sens {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		r.b.WriteString("  sensitivity ")
		r.word(a)
		r.b.WriteByte(' ')
		r.float(sens[a])
		r.b.WriteByte('\n')
	}
	r.b.WriteString("}\n")
}

// provider writes one provider block. Its attributes are the sorted union
// of its tuple-bearing and σ-bearing ones: an attribute can carry a σ
// element with no explicit tuples (it still weighs implicit-zero
// conflicts), and it must be written or the element is lost on the round
// trip. An attribute's default σ is written when it is not the unit
// default, and a per-purpose σ when it differs from that default.
func (r *renderer) provider(prov *privacy.Prefs) {
	r.b.WriteString("\nprovider \"")
	r.b.WriteString(prov.Provider)
	r.b.WriteString("\" threshold ")
	r.float(prov.Threshold)
	r.b.WriteString(" {\n")
	attrs, keys := prov.Attributes(), prov.SensitivityKeys()
	for i, j := 0, 0; i < len(attrs) || j < len(keys); {
		var attr string
		if j == len(keys) || i < len(attrs) && attrs[i] <= keys[j].Attribute {
			attr = attrs[i]
		} else {
			attr = keys[j].Attribute
		}
		if i < len(attrs) && attrs[i] == attr {
			i++
		}
		r.b.WriteString("  attr ")
		r.word(attr)
		r.b.WriteString(" {\n")
		def := prov.Sensitivity(attr, "")
		if def != privacy.UnitSensitivity {
			r.sens("", def)
		}
		for ; j < len(keys) && keys[j].Attribute == attr; j++ {
			if pr := keys[j].Purpose; pr != "" {
				if s := prov.Sensitivity(attr, pr); s != def {
					r.sens(string(pr), s)
				}
			}
		}
		r.tuples, _ = prov.AppendEffective(r.tuples[:0], attr, nil, nil, false)
		for _, e := range r.tuples {
			r.tuple(e.Tuple)
		}
		r.b.WriteString("  }\n")
	}
	r.b.WriteString("}\n")
}

func (r *renderer) sens(purpose string, s privacy.Sensitivity) {
	r.b.WriteString("    sens ")
	if purpose != "" {
		r.b.WriteString("purpose=")
		r.word(purpose)
		r.b.WriteByte(' ')
	}
	r.b.WriteString("value=")
	r.float(s.Value)
	r.b.WriteString(" v=")
	r.float(s.Visibility)
	r.b.WriteString(" g=")
	r.float(s.Granularity)
	r.b.WriteString(" r=")
	r.float(s.Retention)
	r.b.WriteByte('\n')
}

func (r *renderer) tuple(t privacy.Tuple) {
	r.b.WriteString("    tuple purpose=")
	r.word(string(t.Purpose))
	r.b.WriteString(" visibility=")
	r.level(privacy.DimVisibility, t.Visibility)
	r.b.WriteString(" granularity=")
	r.level(privacy.DimGranularity, t.Granularity)
	r.b.WriteString(" retention=")
	r.level(privacy.DimRetention, t.Retention)
	r.b.WriteByte('\n')
}

// level writes a level's scale name, or its number when it is off the
// scale.
func (r *renderer) level(d privacy.Dimension, l privacy.Level) {
	if s := r.sc.For(d); s != nil && s.Contains(l) {
		r.b.WriteString(s.Name(l))
		return
	}
	r.b.Write(strconv.AppendInt(r.num[:0], int64(l), 10))
}

// float writes f as %g does.
func (r *renderer) float(f float64) {
	r.b.Write(strconv.AppendFloat(r.num[:0], f, 'g', -1, 64))
}

// word writes an attribute name or purpose: bare when it lexes as one
// identifier, quoted otherwise (a parsed name never holds '"' or a newline).
func (r *renderer) word(s string) {
	if isIdent(s) {
		r.b.WriteString(s)
		return
	}
	r.b.WriteByte('"')
	r.b.WriteString(s)
	r.b.WriteByte('"')
}
