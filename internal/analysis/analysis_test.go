package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantAnn is one `// want "substring"` annotation in a testdata fixture:
// the golden tests require exactly one finding whose message contains
// substr at that file and line, and no findings anywhere else.
type wantAnn struct {
	file    string // base name
	line    int
	substr  string
	matched bool
}

// parseWants scans a fixture source file for want annotations.
func parseWants(t *testing.T, path string) []*wantAnn {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	base := filepath.Base(path)
	var out []*wantAnn
	for i, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, `// want "`)
		if !ok {
			continue
		}
		substr, _, ok := strings.Cut(rest, `"`)
		if !ok || substr == "" {
			t.Fatalf("%s:%d: malformed want annotation", base, i+1)
		}
		out = append(out, &wantAnn{file: base, line: i + 1, substr: substr})
	}
	return out
}

// TestCheckersGolden runs each checker over its fixture package under
// testdata/src and matches the findings against the fixtures' want
// annotations. Lines carrying a lint:ignore directive have no want
// annotation, so a suppression failure surfaces as an unexpected finding.
func TestCheckersGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	cases := []struct {
		checker string
		fixture string
	}{
		{"lockcheck", "lockcheckdata"},
		{"floatcmp", "floatcmpdata"},
		{"enumswitch", "enumswitchdata"},
		{"errflow", "errflowdata"},
		{"lockorder", "lockorderdata"},
		{"determinism", "determinismdata"},
		{"fanout", "fanoutdata"},
	}
	for _, tc := range cases {
		t.Run(tc.checker, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.fixture)
			pkgs, err := loader.Load([]string{dir})
			if err != nil {
				t.Fatalf("Load(%s): %v", dir, err)
			}
			checkers, err := Select(tc.checker)
			if err != nil {
				t.Fatalf("Select(%s): %v", tc.checker, err)
			}
			ignores := 0
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					src, err := os.ReadFile(loader.fset.Position(f.Pos()).Filename)
					if err != nil {
						t.Fatalf("reading fixture: %v", err)
					}
					ignores += strings.Count(string(src), "//lint:ignore "+tc.checker)
				}
			}
			if ignores == 0 {
				t.Errorf("fixture %s demonstrates no //lint:ignore %s suppression", tc.fixture, tc.checker)
			}
			matchWants(t, loader, pkgs, Analyze(pkgs, checkers))
		})
	}

	t.Run("cleandata", func(t *testing.T) {
		pkgs, err := loader.Load([]string{filepath.Join("testdata", "src", "cleandata")})
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if findings := Analyze(pkgs, Checkers()); len(findings) != 0 {
			for _, f := range findings {
				t.Errorf("unexpected finding: %s", f)
			}
		}
	})
}

// matchWants requires exactly one finding per want annotation in the
// loaded fixture files, at its file and line and containing its
// substring, and no other finding.
func matchWants(t *testing.T, loader *Loader, pkgs []*Package, findings []Finding) {
	t.Helper()
	var wants []*wantAnn
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			wants = append(wants, parseWants(t, loader.fset.Position(f.Pos()).Filename)...)
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want annotations")
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Base(f.File) && w.line == f.Line && strings.Contains(f.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: missing finding containing %q", w.file, w.line, w.substr)
		}
	}
}

// TestCrossPackageFindings runs the whole-program checkers over a
// two-package fixture whose lock-order inversion and order-dependent map
// range are each reached only through a direct call from one package into
// the other: the call graph must resolve calls across package boundaries.
func TestCrossPackageFindings(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load([]string{filepath.Join("testdata", "src", "crosspkgdata") + "/..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want the fixture and its store", len(pkgs))
	}
	checkers, err := Select("lockorder,determinism")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	matchWants(t, loader, pkgs, Analyze(pkgs, checkers))
}

// TestAnalyzeDeterministic verifies that finding order is stable across
// runs and sorted by position.
func TestAnalyzeDeterministic(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs := []string{
		filepath.Join("testdata", "src", "errflowdata"),
		filepath.Join("testdata", "src", "floatcmpdata"),
	}
	pkgs, err := loader.Load(dirs)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	first := Analyze(pkgs, Checkers())
	if len(first) == 0 {
		t.Fatal("expected findings from the fixture packages")
	}
	for run := 0; run < 3; run++ {
		again := Analyze(pkgs, Checkers())
		if len(again) != len(first) {
			t.Fatalf("run %d: %d findings, want %d", run, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("run %d: finding %d differs: %s vs %s", run, i, again[i], first[i])
			}
		}
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("findings out of order: %s before %s", a, b)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Checkers()) {
		t.Fatalf("Select(\"\") = %d checkers, err %v; want all %d", len(all), err, len(Checkers()))
	}
	two, err := Select("floatcmp, errflow")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(two) != 2 || two[0].Name != "floatcmp" || two[1].Name != "errflow" {
		t.Fatalf("Select kept %v, want [floatcmp errflow]", two)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(nosuch) succeeded, want error")
	}
}

// TestIgnoreDirectives exercises parseIgnores on synthetic sources:
// well-formed directives suppress on their own line and the next, the
// "all" wildcard covers every checker, and malformed directives are
// flagged rather than silently honored.
func TestIgnoreDirectives(t *testing.T) {
	const src = `package p

//lint:ignore floatcmp tolerances do not apply here
var a = 1

//lint:ignore floatcmp,errflow two checkers one reason
var b = 2

//lint:ignore all everything is fine
var c = 3

//lint:ignore errflow
var d = 4
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ds := parseIgnores(fset, f)
	if len(ds) != 4 {
		t.Fatalf("parsed %d directives, want 4", len(ds))
	}
	if !ds[0].matches("floatcmp", ds[0].line) || !ds[0].matches("floatcmp", ds[0].line+1) {
		t.Error("directive should match its own line and the next")
	}
	if ds[0].matches("floatcmp", ds[0].line+2) {
		t.Error("directive should not reach two lines down")
	}
	if ds[0].matches("errflow", ds[0].line+1) {
		t.Error("directive should only match its named checker")
	}
	if !ds[1].matches("floatcmp", ds[1].line+1) || !ds[1].matches("errflow", ds[1].line+1) {
		t.Error("comma list should match both named checkers")
	}
	if !ds[2].matches("lockcheck", ds[2].line+1) {
		t.Error("all wildcard should match any checker")
	}
	if !ds[3].bad {
		t.Error("directive without a reason should be flagged as malformed")
	}
	if ds[3].matches("errflow", ds[3].line+1) {
		t.Error("malformed directive must not suppress anything")
	}
}

// TestIgnoreBracketedReasons exercises the per-checker bracketed-reason
// grammar: non-empty bracketed reasons satisfy the reason requirement,
// empty ones poison the directive, and mixed lists still require either a
// trailing reason or a bracket on every name.
func TestIgnoreBracketedReasons(t *testing.T) {
	const src = `package p

//lint:ignore floatcmp[sentinel zero is assigned, never computed]
var a = 1

//lint:ignore floatcmp[assigned zero],errflow[best-effort probe]
var b = 2

//lint:ignore floatcmp[]
var c = 3

//lint:ignore floatcmp[   ]
var d = 4

//lint:ignore floatcmp[reasoned],errflow
var e = 5

//lint:ignore floatcmp[reasoned],errflow trailing reason covers the bare name
var f = 6
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ds := parseIgnores(fset, file)
	if len(ds) != 6 {
		t.Fatalf("parsed %d directives, want 6", len(ds))
	}
	if ds[0].bad || !ds[0].matches("floatcmp", ds[0].line+1) {
		t.Error("single bracketed reason should suppress its checker")
	}
	if ds[1].bad || !ds[1].matches("floatcmp", ds[1].line+1) || !ds[1].matches("errflow", ds[1].line+1) {
		t.Error("per-checker bracketed reasons should suppress both checkers")
	}
	if !ds[2].bad {
		t.Error("empty bracketed reason should be flagged as malformed")
	}
	if !ds[3].bad {
		t.Error("whitespace-only bracketed reason should be flagged as malformed")
	}
	if !ds[4].bad {
		t.Error("bare name alongside a bracketed one still needs a trailing reason")
	}
	if ds[5].bad || !ds[5].matches("errflow", ds[5].line+1) {
		t.Error("trailing reason should cover bare names in a mixed list")
	}
}

// TestAnalyzeReportsEmptyBracketReason verifies the malformed directive
// surfaces as a lintdirective finding through the full Analyze path.
func TestAnalyzeReportsEmptyBracketReason(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

//lint:ignore errflow[]
var X = 1
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load([]string{dir})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings := Analyze(pkgs, Checkers())
	if len(findings) != 1 || findings[0].Checker != "lintdirective" {
		t.Fatalf("findings = %v, want one lintdirective finding", findings)
	}
	if !strings.Contains(findings[0].Message, "non-empty") {
		t.Errorf("message %q does not explain the empty-reason rule", findings[0].Message)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{File: "x.go", Line: 7, Col: 3, Checker: "floatcmp", Message: "m"}
	if got, want := f.String(), "x.go:7: [floatcmp] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestLoaderRejectsBadPattern(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if _, err := loader.Load([]string{"testdata/no/such/dir"}); err == nil {
		t.Fatal("Load of a missing directory succeeded, want error")
	}
}

// TestWildcardSkipsTestdata ensures ./... expansion never descends into
// testdata (the fixtures contain deliberate violations).
func TestWildcardSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load(./...) found no packages")
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, string(filepath.Separator)+"testdata"+string(filepath.Separator)) ||
			strings.HasSuffix(p.Dir, string(filepath.Separator)+"testdata") {
			t.Errorf("wildcard expansion descended into %s", p.Dir)
		}
	}
}

// BenchmarkAnalyzeFixtures times a full load+analyze cycle over one
// fixture package, the unit of work `make check` repeats per package.
func BenchmarkAnalyzeFixtures(b *testing.B) {
	loader, err := NewLoader(".")
	if err != nil {
		b.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "floatcmpdata")
	pkgs, err := loader.Load([]string{dir})
	if err != nil {
		b.Fatalf("Load: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := Analyze(pkgs, Checkers()); len(findings) == 0 {
			b.Fatal("expected findings")
		}
	}
}
