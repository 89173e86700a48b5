// Package policydsl parses and renders a small text language for declaring
// house policies, attribute sensitivities and provider preferences — the
// concrete syntax that makes the model's inputs auditable artifacts rather
// than code. It is the one serialized form of them: HTTP bodies, corpus
// files, snapshots and the write-ahead log all carry this text.
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
	tErr // the lexer failed here; lexer.err says why
)

// tok is one token. text is a substring of the source (a quoted string's
// bytes between its quotes), so the parser copies whatever it keeps.
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

// lexer hands out src's tokens one at a time, as the parser asks for them.
// After an error every call returns tErr.
type lexer struct {
	src  string
	i    int
	line int
	err  error
}

func (lx *lexer) next() tok {
	if lx.err != nil {
		return tok{kind: tErr, line: lx.line}
	}
	src := lx.src
	for lx.i < len(src) {
		i := lx.i
		c := src[i]
		switch {
		case c == '\n':
			lx.line++
			lx.i++
		case c == ' ' || c == '\t' || c == '\r':
			lx.i++
		case c == '#':
			for lx.i < len(src) && src[lx.i] != '\n' {
				lx.i++
			}
		case c == '{':
			lx.i++
			return tok{tLBrace, "{", lx.line}
		case c == '}':
			lx.i++
			return tok{tRBrace, "}", lx.line}
		case c == '=':
			lx.i++
			return tok{tEquals, "=", lx.line}
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				j++
			}
			if j >= len(src) || src[j] == '\n' {
				return lx.fail("unterminated string")
			}
			lx.i = j + 1
			return tok{tString, src[i+1 : j], lx.line}
		case isNumStart(c):
			j := i
			for j < len(src) && (isDigit(src[j]) || src[j] == '.' || src[j] == '-' || src[j] == '+' || src[j] == 'e' || src[j] == 'E') {
				j++
			}
			lx.i = j
			return tok{tNumber, src[i:j], lx.line}
		default:
			j := i
			for j < len(src) {
				if c := src[j]; c < utf8.RuneSelf {
					if !isIdentByte(c) {
						break
					}
					j++
					continue
				}
				r, size := utf8.DecodeRuneInString(src[j:])
				if !isIdentRune(r) { // utf8.RuneError included
					break
				}
				j += size
			}
			if j == i {
				r, size := utf8.DecodeRuneInString(src[i:])
				if r == utf8.RuneError && size == 1 {
					return lx.fail("invalid UTF-8 byte %#x", src[i])
				}
				return lx.fail("unexpected character %q", r)
			}
			lx.i = j
			return tok{tIdent, src[i:j], lx.line}
		}
	}
	return tok{kind: tEOF, line: lx.line}
}

func (lx *lexer) fail(format string, args ...any) tok {
	lx.err = fmt.Errorf("policydsl: line %d: %s", lx.line, fmt.Sprintf(format, args...))
	return tok{kind: tErr, line: lx.line}
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isNumStart(c byte) bool { return isDigit(c) || c == '-' || c == '+' }

// isIdentRune admits letters, digits, '_' and '-' (purpose and scale names
// like "third-party" and "email-marketing" are single identifiers).
func isIdentRune(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isIdentByte is isIdentRune for an ASCII byte.
func isIdentByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c) || c == '_' || c == '-'
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
