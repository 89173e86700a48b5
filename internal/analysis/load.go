package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked package under analysis: non-test
// syntax (with comments, for lint:ignore), type information and the
// loader's shared FileSet.
type Package struct {
	// Path is the import path ("repro/internal/ppdb").
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset positions every file in the load.
	Fset *token.FileSet
	// Files holds the parsed non-test sources.
	Files []*ast.File
	// Types and Info carry go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages from source, resolving repo-local
// imports against the module root and everything else against GOROOT —
// a zero-dependency substitute for golang.org/x/tools/go/packages that is
// exact for this repo (the module itself has no external imports).
//
// Each module package is type-checked once, with full syntax and info,
// and that one *types.Package is what its importers see, so an object
// named across packages (a called function, an implemented interface) is
// the same object the defining package declares — the whole-program call
// graph resolves cross-package calls through it.
type Loader struct {
	fset   *token.FileSet
	ctx    build.Context
	root   string // module root (directory containing go.mod)
	module string // module path from go.mod

	pkgs    map[string]*Package       // module import path → checked package
	deps    map[string]*types.Package // GOROOT import path → checked dependency
	loading map[string]bool           // cycle guard
}

// NewLoader locates the enclosing module of dir (walking up to go.mod) and
// prepares a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false // analyze the pure-Go shape of every package
	return &Loader{
		fset:    token.NewFileSet(),
		ctx:     ctx,
		root:    root,
		module:  mod,
		pkgs:    make(map[string]*Package),
		deps:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Load expands patterns (Go-style: "./...", "./internal/ppdb/...", plain
// directories; relative to cwd) and returns the matched packages,
// type-checked and sorted by import path. Directories named "testdata" or
// starting with "." or "_" are skipped by wildcard expansion but may be
// named explicitly — that is how the checker test fixtures are loaded.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.check(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// expand resolves patterns to a sorted, deduplicated list of absolute
// package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		info, err := os.Stat(abs)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q does not name a directory", pat)
		}
		if !recursive {
			if l.hasGoFiles(abs) {
				add(abs)
			} else {
				return nil, fmt.Errorf("analysis: no buildable Go files in %s", pat)
			}
			continue
		}
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if path != abs && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if l.hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir holds buildable non-test Go sources.
func (l *Loader) hasGoFiles(dir string) bool {
	bp, err := l.ctx.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}

// check parses and type-checks the module package in dir with full syntax
// and type info, memoized: the package a Load returns is the one its
// importers were checked against.
func (l *Loader) check(dir string) (*Package, error) {
	path := l.importPathFor(dir)
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		if _, none := err.(*build.NoGoError); none {
			return nil, nil
		}
		return nil, err
	}
	files, err := l.parseFiles(dir, bp.GoFiles, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importDep),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	//lint:ignore errflow type errors are accumulated via conf.Error and reported together below
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: %s does not type-check:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importPathFor maps a repo directory to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importDep resolves an import. A module package is checked by check, the
// same package Load hands to the analysis; a GOROOT package is checked
// from source, memoized, without syntax retention or extra info — only
// its exported type surface is needed.
func (l *Loader) importDep(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.check(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import %q: no buildable Go files in %s", path, dir)
		}
		return pkg.Types, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: import %q: %w", path, err)
	}
	files, err := l.parseFiles(dir, bp.GoFiles, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: importerFunc(l.importDep)}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: import %q: %w", path, err)
	}
	l.deps[path] = pkg
	return pkg, nil
}

// dirFor resolves an import path to a source directory: the module itself,
// then GOROOT/src, then GOROOT's vendored dependencies.
func (l *Loader) dirFor(path string) (string, error) {
	if path == l.module {
		return l.root, nil
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest)), nil
	}
	goroot := l.ctx.GOROOT
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if info, err := os.Stat(dir); err == nil && info.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q (not in module %s or GOROOT)", path, l.module)
}

// parseFiles parses the named files in dir in deterministic order.
func (l *Loader) parseFiles(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	files := make([]*ast.File, 0, len(sorted))
	for _, name := range sorted {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
