package policydsl

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/privacy"
)

// Document is a parsed policy corpus: at most one house policy, its Σ
// vector, and any number of provider preference blocks.
type Document struct {
	Scales    privacy.Scales
	Policy    *privacy.HousePolicy
	AttrSens  privacy.AttributeSensitivities
	Providers []*privacy.Prefs
}

// Parse parses a DSL document against the default taxonomy scales.
func Parse(src string) (*Document, error) {
	return ParseWithScales(src, privacy.DefaultScales())
}

// ParseWithScales parses a DSL document, resolving level names on the given
// scales.
func ParseWithScales(src string, scales privacy.Scales) (*Document, error) {
	if err := scales.Validate(); err != nil {
		return nil, err
	}
	p := &dslParser{lx: lexer{src: src, line: 1}, scales: scales, kept: map[string]string{}}
	p.cur = p.lx.next()
	doc := &Document{Scales: scales, AttrSens: privacy.AttributeSensitivities{}}
	for !p.at(tEOF) {
		switch {
		case p.atIdent("policy"):
			if doc.Policy != nil {
				return nil, p.errf("document already has a policy")
			}
			pol, err := p.parsePolicy(doc)
			if err != nil {
				return nil, err
			}
			doc.Policy = pol
		case p.atIdent("provider"):
			prov, err := p.parseProvider()
			if err != nil {
				return nil, err
			}
			doc.Providers = append(doc.Providers, prov)
		default:
			return nil, p.errf("expected 'policy' or 'provider', found %s", p.peek())
		}
	}
	if doc.Policy != nil {
		if err := doc.Policy.Validate(scales); err != nil {
			return nil, err
		}
	}
	for _, prov := range doc.Providers {
		if err := prov.Validate(scales); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// dslParser reads one token ahead of the lexer. The strings a parsed
// document holds are copies, never substrings of the source, so a
// document does not keep its request body alive.
type dslParser struct {
	lx     lexer
	cur    tok
	scales privacy.Scales
	// kept holds the one copy of each attribute name and purpose the
	// document stores, keyed by itself.
	kept map[string]string
}

func (p *dslParser) peek() tok { return p.cur }

func (p *dslParser) next() tok {
	t := p.cur
	if t.kind != tEOF && t.kind != tErr {
		p.cur = p.lx.next()
	}
	return t
}

func (p *dslParser) at(k tokKind) bool { return p.cur.kind == k }

func (p *dslParser) atIdent(name string) bool {
	return p.cur.kind == tIdent && strings.EqualFold(p.cur.text, name)
}

// errf reports an error at the current token. A token the lexer could not
// read is the error, whatever the parser expected there.
func (p *dslParser) errf(format string, args ...any) error {
	if p.cur.kind == tErr {
		return p.lx.err
	}
	return p.valueErrf(format, args...)
}

// valueErrf reports an error in a token already consumed, which comes
// before anything the lexer has failed on.
func (p *dslParser) valueErrf(format string, args ...any) error {
	return fmt.Errorf("policydsl: line %d: %s", p.cur.line, fmt.Sprintf(format, args...))
}

func (p *dslParser) expect(k tokKind, what string) (tok, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return tok{}, p.errf("expected %s, found %s", what, p.peek())
}

func (p *dslParser) expectIdent(name string) error {
	if p.atIdent(name) {
		p.next()
		return nil
	}
	return p.errf("expected %q, found %s", name, p.peek())
}

// name accepts a string or identifier token as a name. The name is a
// substring of the source, so a caller stores a copy of it.
func (p *dslParser) name(what string) (string, error) {
	t := p.peek()
	if t.kind == tString || t.kind == tIdent {
		p.next()
		return t.text, nil
	}
	return "", p.errf("expected %s, found %s", what, t)
}

// attr accepts an attribute name and returns its canonical form, one copy
// per distinct attribute in the document.
func (p *dslParser) attr() (string, error) {
	a, err := p.name("attribute name")
	if err != nil {
		return "", err
	}
	return p.keep(privacy.CanonAttr(a)), nil
}

// purpose returns text's normalized purpose, one copy per distinct purpose
// in the document.
func (p *dslParser) purpose(text string) privacy.Purpose {
	return privacy.Purpose(p.keep(string(privacy.Purpose(text).Normalize())))
}

// keep returns the document's one copy of s.
func (p *dslParser) keep(s string) string {
	if k, ok := p.kept[s]; ok {
		return k
	}
	k := strings.Clone(s)
	p.kept[k] = k
	return k
}

func (p *dslParser) number(what string) (float64, error) {
	t, err := p.expect(tNumber, what)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.valueErrf("bad number %q for %s", t.text, what)
	}
	return f, nil
}

// parsePolicy parses: policy "name" { attr X { tuple … }… sensitivity X n … }
func (p *dslParser) parsePolicy(doc *Document) (*privacy.HousePolicy, error) {
	p.next() // policy
	name, err := p.name("policy name")
	if err != nil {
		return nil, err
	}
	hp := privacy.NewHousePolicy(strings.Clone(name))
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return nil, err
	}
	for !p.at(tRBrace) {
		switch {
		case p.atIdent("attr"):
			p.next()
			attr, err := p.attr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tLBrace, "{"); err != nil {
				return nil, err
			}
			for !p.at(tRBrace) {
				if err := p.expectIdent("tuple"); err != nil {
					return nil, err
				}
				t, err := p.parseTuple()
				if err != nil {
					return nil, err
				}
				hp.Add(attr, t)
			}
			p.next() // }
		case p.atIdent("sensitivity"):
			p.next()
			attr, err := p.attr()
			if err != nil {
				return nil, err
			}
			v, err := p.number("sensitivity")
			if err != nil {
				return nil, err
			}
			doc.AttrSens.Set(attr, v)
		default:
			return nil, p.errf("expected 'attr' or 'sensitivity' in policy, found %s", p.peek())
		}
	}
	p.next() // }
	return hp, nil
}

// parseProvider parses:
// provider "name" threshold N { attr X { sens … tuple … } … }
func (p *dslParser) parseProvider() (*privacy.Prefs, error) {
	p.next() // provider
	name, err := p.name("provider name")
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("threshold"); err != nil {
		return nil, err
	}
	thresh, err := p.number("threshold")
	if err != nil {
		return nil, err
	}
	prefs := privacy.NewPrefs(strings.Clone(name), thresh)
	if _, err := p.expect(tLBrace, "{"); err != nil {
		return nil, err
	}
	for !p.at(tRBrace) {
		if err := p.expectIdent("attr"); err != nil {
			return nil, err
		}
		attr, err := p.attr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tLBrace, "{"); err != nil {
			return nil, err
		}
		for !p.at(tRBrace) {
			switch {
			case p.atIdent("tuple"):
				p.next()
				t, err := p.parseTuple()
				if err != nil {
					return nil, err
				}
				prefs.Add(attr, t)
			case p.atIdent("sens"):
				p.next()
				s, pr, err := p.parseSens()
				if err != nil {
					return nil, err
				}
				if pr == "" {
					prefs.SetSensitivity(attr, s)
				} else {
					prefs.SetPurposeSensitivity(attr, pr, s)
				}
			default:
				return nil, p.errf("expected 'tuple' or 'sens', found %s", p.peek())
			}
		}
		p.next() // }
	}
	p.next() // }
	return prefs, nil
}

// parseTuple parses key=value pairs: purpose=… visibility=… granularity=…
// retention=… (all four required, any order).
func (p *dslParser) parseTuple() (privacy.Tuple, error) {
	var t privacy.Tuple
	seen := map[string]bool{}
	for p.at(tIdent) && !p.atIdent("tuple") && !p.atIdent("sens") && !p.atIdent("attr") {
		key := strings.ToLower(p.next().text)
		if _, err := p.expect(tEquals, "="); err != nil {
			return t, err
		}
		val := p.peek()
		if val.kind != tIdent && val.kind != tNumber && val.kind != tString {
			return t, p.errf("expected a value for %s, found %s", key, val)
		}
		p.next()
		switch key {
		case "purpose", "pr":
			t.Purpose = p.purpose(val.text)
		case "visibility", "v":
			lv, err := p.level(privacy.DimVisibility, val.text)
			if err != nil {
				return t, err
			}
			t.Visibility = lv
		case "granularity", "g":
			lv, err := p.level(privacy.DimGranularity, val.text)
			if err != nil {
				return t, err
			}
			t.Granularity = lv
		case "retention", "r":
			lv, err := p.level(privacy.DimRetention, val.text)
			if err != nil {
				return t, err
			}
			t.Retention = lv
		default:
			return t, p.valueErrf("unknown tuple key %q", key)
		}
		seen[keyCanon(key)] = true
	}
	for _, need := range []string{"purpose", "visibility", "granularity", "retention"} {
		if !seen[need] {
			return t, p.errf("tuple is missing %s", need)
		}
	}
	return t, nil
}

func keyCanon(k string) string {
	switch k {
	case "pr":
		return "purpose"
	case "v":
		return "visibility"
	case "g":
		return "granularity"
	case "r":
		return "retention"
	default:
		return k
	}
}

// level resolves a level token: a scale name or a bare integer.
func (p *dslParser) level(dim privacy.Dimension, text string) (privacy.Level, error) {
	// Atoi refuses (and allocates its error for) anything that does not
	// start like a number, so a level name skips it.
	if text != "" && isNumStart(text[0]) {
		if n, err := strconv.Atoi(text); err == nil {
			if n < 0 {
				return 0, p.valueErrf("%s level %d is negative", dim, n)
			}
			return privacy.Level(n), nil
		}
	}
	scale := p.scales.For(dim)
	if lv, ok := scale.Level(text); ok {
		return lv, nil
	}
	return 0, p.valueErrf("unknown %s level %q (scale: %s)", dim, text, strings.Join(scale.Names(), " < "))
}

// parseSens parses: [purpose=P] value=N v=N g=N r=N (value and the three
// dimension weights required).
func (p *dslParser) parseSens() (privacy.Sensitivity, privacy.Purpose, error) {
	s := privacy.Sensitivity{}
	var pr privacy.Purpose
	seen := map[string]bool{}
	for p.at(tIdent) && !p.atIdent("tuple") && !p.atIdent("sens") && !p.atIdent("attr") {
		key := strings.ToLower(p.next().text)
		if _, err := p.expect(tEquals, "="); err != nil {
			return s, pr, err
		}
		valTok := p.peek()
		if key == "purpose" || key == "pr" {
			if valTok.kind != tIdent && valTok.kind != tString {
				return s, pr, p.errf("expected a purpose name, found %s", valTok)
			}
			p.next()
			pr = p.purpose(valTok.text)
			continue
		}
		f, err := p.number(key)
		if err != nil {
			return s, pr, err
		}
		switch key {
		case "value":
			s.Value = f
		case "v", "visibility":
			s.Visibility = f
		case "g", "granularity":
			s.Granularity = f
		case "r", "retention":
			s.Retention = f
		default:
			return s, pr, p.valueErrf("unknown sens key %q", key)
		}
		seen[keyCanon(key)] = true
	}
	for _, need := range []string{"value", "visibility", "granularity", "retention"} {
		if !seen[need] {
			return s, pr, p.errf("sens is missing %s", need)
		}
	}
	return s, pr, nil
}
