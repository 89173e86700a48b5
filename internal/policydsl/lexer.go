// Package policydsl parses and renders a small text language for declaring
// house policies, attribute sensitivities and provider preferences — the
// concrete syntax that makes the model's inputs auditable artifacts rather
// than code. A JSON binding is also provided for interchange.
//
// Example document:
//
//	policy "clinic-v1" {
//	  attr weight {
//	    tuple purpose=care visibility=house granularity=specific retention=year
//	  }
//	  sensitivity weight 4
//	}
//
//	provider "alice" threshold 50 {
//	  attr weight {
//	    sens value=1 v=1 g=2 r=1
//	    tuple purpose=care visibility=world granularity=specific retention=indefinite
//	  }
//	}
//
// Level values may be scale names (on the document's scales, default
// taxonomy scales) or bare integers. Identifiers are UTF-8 letters, digits,
// '_' and '-'. Quoted strings carry their bytes verbatim up to the next '"'
// — there are no escapes — so a name holding '"' or a newline cannot be
// written, and privacy validation refuses such names.
package policydsl

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tString
	tNumber
	tLBrace
	tRBrace
	tEquals
)

type tok struct {
	kind tokKind
	text string
	line int
}

func (t tok) String() string {
	switch t.kind {
	case tEOF:
		return "end of input"
	case tLBrace:
		return "{"
	case tRBrace:
		return "}"
	case tEquals:
		return "="
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

func lex(src string) ([]tok, error) {
	var toks []tok
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{':
			toks = append(toks, tok{tLBrace, "{", line})
			i++
		case c == '}':
			toks = append(toks, tok{tRBrace, "}", line})
			i++
		case c == '=':
			toks = append(toks, tok{tEquals, "=", line})
			i++
		case c == '"':
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\n' {
					return nil, fmt.Errorf("policydsl: line %d: unterminated string", line)
				}
				b.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("policydsl: line %d: unterminated string", line)
			}
			toks = append(toks, tok{tString, b.String(), line})
			i = j + 1
		case isNumStart(c):
			j := i
			for j < len(src) && (isDigit(src[j]) || src[j] == '.' || src[j] == '-' || src[j] == '+' || src[j] == 'e' || src[j] == 'E') {
				j++
			}
			toks = append(toks, tok{tNumber, src[i:j], line})
			i = j
		default:
			j := i
			for j < len(src) {
				r, size := utf8.DecodeRuneInString(src[j:])
				if !isIdentRune(r) { // utf8.RuneError included
					break
				}
				j += size
			}
			if j == i {
				r, size := utf8.DecodeRuneInString(src[i:])
				if r == utf8.RuneError && size == 1 {
					return nil, fmt.Errorf("policydsl: line %d: invalid UTF-8 byte %#x", line, src[i])
				}
				return nil, fmt.Errorf("policydsl: line %d: unexpected character %q", line, r)
			}
			toks = append(toks, tok{tIdent, src[i:j], line})
			i = j
		}
	}
	toks = append(toks, tok{kind: tEOF, line: line})
	return toks, nil
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isNumStart(c byte) bool { return isDigit(c) || c == '-' || c == '+' }

// isIdentRune admits letters, digits, '_' and '-' (purpose and scale names
// like "third-party" and "email-marketing" are single identifiers).
func isIdentRune(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isIdent reports whether s lexes back as exactly one identifier token.
func isIdent(s string) bool {
	if s == "" || isNumStart(s[0]) {
		return false
	}
	for _, r := range s {
		if !isIdentRune(r) {
			return false
		}
	}
	return true
}
