// Package analysis is a small static-analysis framework over the standard
// library's go/ast, go/parser and go/types — no external module
// dependencies, matching the repo's zero-dep go.mod. It exists because the
// reproduction's correctness rests on invariants the compiler cannot see:
// mutex-guarded shared state in internal/ppdb (whose row tables have no
// lock of their own and live under ppdb.DB's), ε-sensitive severity
// arithmetic in internal/core and internal/economics (Eqs. 12-16 of the
// paper), two hand-written parsers whose errors must never be silently
// dropped, and — since the store fans population work out — a
// whole-program lock order and the byte-determinism of every persisted
// artifact. Each invariant gets a Checker; cmd/ppdblint drives them all
// and gates `make check`.
//
// Checkers come in two shapes: per-package (Run) and whole-program
// (RunProgram), the latter running over the cross-package call graph of
// callgraph.go so lock nesting and reachability cross package boundaries.
//
// Deliberate exceptions are annotated in source with
//
//	//lint:ignore <checker>[,<checker>...] <reason>
//	//lint:ignore <checker>[<reason>][,<checker>[<reason>]...]
//
// which suppresses findings of the named checkers (or "all") on the same
// line and on the line directly below the comment. A reason is mandatory —
// either trailing free text covering the whole directive, or a bracketed
// per-checker reason; an exception without a rationale (or with an empty
// bracketed reason) is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the checker that produced it and a
// human-readable message. Output ordering is deterministic (file, line,
// column, checker, message) so runs are diffable.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Checker string `json:"checker"`
	Message string `json:"message"`
}

// String renders the canonical `file:line: [checker] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Checker, f.Message)
}

// Pass is the per-package view handed to a checker: syntax, type
// information and a Report sink.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	report func(pos token.Pos, msg string)
}

// Report records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// TypeOf returns the type of e, or nil when untracked.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ProgramPass is the whole-program view handed to a cross-package checker:
// the call graph plus a Report sink.
type ProgramPass struct {
	Prog   *Program
	report func(pos token.Pos, msg string)
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Checker is one named invariant. Exactly one of Run and RunProgram is
// set: Run inspects a single package, RunProgram the whole load at once.
type Checker struct {
	// Name is the identifier used by -checker selection and lint:ignore.
	Name string
	// Doc is a one-line description for usage output.
	Doc string
	// Run inspects one package and reports findings.
	Run func(*Pass)
	// RunProgram inspects the whole program (cross-package call graph).
	RunProgram func(*ProgramPass)
}

// Checkers returns every registered checker in deterministic order.
func Checkers() []*Checker {
	return []*Checker{
		determinismChecker(),
		enumswitchChecker(),
		errflowChecker(),
		fanoutChecker(),
		floatcmpChecker(),
		lockcheckChecker(),
		lockorderChecker(),
	}
}

// Select resolves a comma-separated checker-name list ("" means all).
func Select(names string) ([]*Checker, error) {
	all := Checkers()
	if strings.TrimSpace(names) == "" {
		return all, nil
	}
	byName := make(map[string]*Checker, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []*Checker
	seen := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		c, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(all))
			for _, k := range all {
				known = append(known, k.Name)
			}
			return nil, fmt.Errorf("analysis: unknown checker %q (known: %s)", n, strings.Join(known, ", "))
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	line     int
	checkers map[string]bool // nil means "all"
	bad      bool            // malformed (missing or empty reason)
}

const ignorePrefix = "//lint:ignore "

// parseIgnoreList splits the checker list of a lint:ignore directive into
// (names, allReasoned, rest): the checker names, whether every name carried
// a non-empty bracketed reason, and the remaining trailing text. A name
// with an empty bracketed reason ("checker[]" or "checker[  ]") poisons the
// parse (ok=false): an exception whose rationale is blank is no exception.
func parseIgnoreList(s string) (names []string, allReasoned bool, rest string, ok bool) {
	allReasoned = true
	i := 0
	for {
		start := i
		for i < len(s) && (isNameRune(s[i])) {
			i++
		}
		if i == start {
			return nil, false, "", false
		}
		names = append(names, s[start:i])
		if i < len(s) && s[i] == '[' {
			close := strings.IndexByte(s[i:], ']')
			if close < 0 {
				return nil, false, "", false
			}
			reason := s[i+1 : i+close]
			if strings.TrimSpace(reason) == "" {
				return nil, false, "", false
			}
			i += close + 1
		} else {
			allReasoned = false
		}
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		break
	}
	if i < len(s) && s[i] != ' ' && s[i] != '\t' {
		return nil, false, "", false
	}
	return names, allReasoned, strings.TrimSpace(s[i:]), true
}

// isNameRune reports whether b may appear in a checker name.
func isNameRune(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '_' || b == '-'
}

// parseIgnores extracts lint:ignore directives from one file. Malformed
// directives (no checker list, no reason, or an empty bracketed reason)
// are returned with bad=true so Analyze can surface them instead of
// silently not suppressing.
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, strings.TrimSpace(ignorePrefix)) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, strings.TrimSpace(ignorePrefix)))
			line := fset.Position(c.Pos()).Line
			names, allReasoned, trailing, ok := parseIgnoreList(rest)
			if !ok || (!allReasoned && trailing == "") {
				out = append(out, ignoreDirective{line: line, bad: true})
				continue
			}
			d := ignoreDirective{line: line}
			all := false
			for _, n := range names {
				if n == "all" {
					all = true
				}
			}
			if !all {
				d.checkers = map[string]bool{}
				for _, n := range names {
					d.checkers[n] = true
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// matches reports whether the directive suppresses checker findings on line.
func (d ignoreDirective) matches(checker string, line int) bool {
	if d.bad {
		return false
	}
	if line != d.line && line != d.line+1 {
		return false
	}
	return d.checkers == nil || d.checkers[checker]
}

// Analyze runs the checkers over the packages — per-package checkers on
// each package, whole-program checkers once over the combined call graph —
// and returns the surviving findings in deterministic order. lint:ignore
// directives are collected across every loaded file, so a program-level
// finding is suppressible at the line it points into regardless of which
// package's analysis produced it. Malformed lint:ignore directives are
// reported under the pseudo-checker name "lintdirective".
func Analyze(pkgs []*Package, checkers []*Checker) []Finding {
	var raw []Finding
	ignores := map[string][]ignoreDirective{} // filename → directives
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fname := pkg.Fset.Position(f.Pos()).Filename
			for _, d := range parseIgnores(pkg.Fset, f) {
				if d.bad {
					raw = append(raw, Finding{
						File:    fname,
						Line:    d.line,
						Col:     1,
						Checker: "lintdirective",
						Message: "malformed lint:ignore directive: want //lint:ignore <checker>[,<checker>] <reason> (bracketed per-checker reasons must be non-empty)",
					})
					continue
				}
				ignores[fname] = append(ignores[fname], d)
			}
		}
	}

	reporter := func(fset *token.FileSet, name string) func(pos token.Pos, msg string) {
		return func(pos token.Pos, msg string) {
			p := fset.Position(pos)
			raw = append(raw, Finding{
				File:    p.Filename,
				Line:    p.Line,
				Col:     p.Column,
				Checker: name,
				Message: msg,
			})
		}
	}

	var programCheckers []*Checker
	for _, pkg := range pkgs {
		for _, c := range checkers {
			if c.Run == nil {
				continue
			}
			pass := &Pass{
				Fset:   pkg.Fset,
				Files:  pkg.Files,
				Pkg:    pkg.Types,
				Info:   pkg.Info,
				report: reporter(pkg.Fset, c.Name),
			}
			c.Run(pass)
		}
	}
	for _, c := range checkers {
		if c.RunProgram != nil {
			programCheckers = append(programCheckers, c)
		}
	}
	if len(programCheckers) > 0 && len(pkgs) > 0 {
		prog := BuildProgram(pkgs)
		for _, c := range programCheckers {
			pp := &ProgramPass{Prog: prog, report: reporter(prog.Fset, c.Name)}
			c.RunProgram(pp)
		}
	}

	var out []Finding
	for _, f := range raw {
		suppressed := false
		for _, d := range ignores[f.File] {
			if d.matches(f.Checker, f.Line) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Message < b.Message
	})
	return out
}
