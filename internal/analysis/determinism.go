package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// determinismChecker guards the byte-determinism of persisted artifacts:
// snapshots, certifications and ledger rebuilds must be identical across
// runs and fan-out widths (DESIGN.md §11). Entry points are annotated in
// source with a //lint:deterministic line in their doc comment; the
// checker computes everything reachable from those roots over the static
// call graph and flags, inside that set:
//
//   - ranges over maps whose body is order-dependent. A body is accepted
//     when every statement is order-independent: definitions of
//     loop-locals, keyed writes (m[k] = v, m[k]++), deletes, integer
//     accumulation (+=/++ on int counters — float accumulators are
//     order-sensitive and rejected), and appends to a slice that the same
//     function later sorts (the repo's collect-then-sort idiom);
//   - calls to time.Now;
//   - any use of math/rand.
//
// Each diagnostic names the full call path from the annotated root to the
// offending function.
func determinismChecker() *Checker {
	return &Checker{
		Name:       "determinism",
		Doc:        "flag order-dependent map ranges, time.Now and math/rand reachable from //lint:deterministic roots",
		RunProgram: runDeterminism,
	}
}

const deterministicMark = "//lint:deterministic"

func runDeterminism(pass *ProgramPass) {
	prog := pass.Prog
	var roots []*Func
	for _, fn := range prog.Functions() {
		if fn.Decl.Doc == nil {
			continue
		}
		for _, c := range fn.Decl.Doc.List {
			if strings.HasPrefix(c.Text, deterministicMark) {
				roots = append(roots, fn)
				break
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	parent := prog.Reachable(roots)
	for _, fn := range prog.Functions() {
		if _, reachable := parent[fn]; !reachable {
			continue
		}
		checkDeterministicFn(pass, parent, fn)
	}
}

func checkDeterministicFn(pass *ProgramPass, parent map[*Func]*Func, fn *Func) {
	pkg := fn.Pkg
	sorted := sortedSliceVars(pkg, fn.Decl.Body)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			t := pkg.Info.TypeOf(v.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if msg := mapRangeIssue(pkg, v, sorted); msg != "" {
				pass.Reportf(v.Pos(), "non-deterministic map iteration in %s: %s (call path: %s)",
					fn.Name(), msg, PathTo(parent, fn))
			}
		case *ast.CallExpr:
			callee := staticCallee(pkg.Info, v)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			switch callee.Pkg().Path() {
			case "time":
				if callee.Name() == "Now" {
					pass.Reportf(v.Pos(), "call to time.Now in %s taints deterministic output (call path: %s)",
						fn.Name(), PathTo(parent, fn))
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(v.Pos(), "use of math/rand (%s) in %s taints deterministic output (call path: %s)",
					callee.Name(), fn.Name(), PathTo(parent, fn))
			}
		}
		return true
	})
}

// staticCallee resolves a call expression to its *types.Func, if direct.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// sortedSliceVars collects the variables passed as the first argument to a
// sort.* or slices.* call anywhere in body — the "later sorted" half of the
// collect-then-sort idiom.
func sortedSliceVars(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		callee := staticCallee(pkg.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if id := rootIdent(call.Args[0]); id != nil {
			if obj := pkg.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// mapRangeIssue decides whether a map range's body is order-independent,
// returning "" when it is and a description of the problem otherwise.
func mapRangeIssue(pkg *Package, rng *ast.RangeStmt, sorted map[types.Object]bool) string {
	locals := map[types.Object]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				locals[obj] = true
			}
		}
		return true
	})
	var unsorted []string
	var ok func(st ast.Stmt) bool
	allOK := func(list []ast.Stmt) bool {
		for _, st := range list {
			if !ok(st) {
				return false
			}
		}
		return true
	}
	ok = func(st ast.Stmt) bool {
		switch s := st.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for i, l := range s.Lhs {
				l = unparen(l)
				if _, isIdx := l.(*ast.IndexExpr); isIdx {
					continue // keyed write: independent per distinct key
				}
				id, isID := l.(*ast.Ident)
				if !isID {
					return false
				}
				if id.Name == "_" {
					continue
				}
				obj := pkg.Info.Uses[id]
				if obj != nil && locals[obj] {
					continue
				}
				// x = append(x, ...): fine if x is sorted later.
				if s.Tok == token.ASSIGN && len(s.Lhs) == len(s.Rhs) && obj != nil {
					if isSelfAppend(pkg, obj, s.Rhs[i]) {
						if !sorted[obj] {
							unsorted = append(unsorted, id.Name)
						}
						continue
					}
				}
				// Integer accumulation commutes; float accumulation does not.
				switch s.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
					if t := pkg.Info.TypeOf(l); t != nil && isIntegerType(t) {
						continue
					}
				default: // every other operator is order-sensitive
				}
				return false
			}
			return true
		case *ast.IncDecStmt:
			x := unparen(s.X)
			if _, isIdx := x.(*ast.IndexExpr); isIdx {
				return true
			}
			if id, isID := x.(*ast.Ident); isID {
				if obj := pkg.Info.Uses[id]; obj != nil && locals[obj] {
					return true
				}
			}
			if t := pkg.Info.TypeOf(x); t != nil && isIntegerType(t) {
				return true
			}
			return false
		case *ast.ExprStmt:
			if call, isCall := unparen(s.X).(*ast.CallExpr); isCall {
				if id, isID := unparen(call.Fun).(*ast.Ident); isID && id.Name == "delete" && isBuiltin(pkg, id) {
					return true // builtin delete: keyed removal commutes
				}
			}
			return false
		case *ast.IfStmt:
			if s.Init != nil && !ok(s.Init) {
				return false
			}
			if !allOK(s.Body.List) {
				return false
			}
			if s.Else != nil {
				return ok(s.Else)
			}
			return true
		case *ast.BlockStmt:
			return allOK(s.List)
		case *ast.RangeStmt:
			return allOK(s.Body.List)
		case *ast.ForStmt:
			return allOK(s.Body.List)
		case *ast.SwitchStmt:
			for _, cc := range s.Body.List {
				if cl, isCase := cc.(*ast.CaseClause); isCase && !allOK(cl.Body) {
					return false
				}
			}
			return true
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE || s.Tok == token.BREAK
		case *ast.DeclStmt:
			return true
		default:
			return false
		}
	}
	if !allOK(rng.Body.List) {
		return "order-dependent statement in range body; collect keys and sort, or write via keyed index"
	}
	if len(unsorted) > 0 {
		return "appended slice " + strings.Join(unsorted, ", ") + " is never sorted in this function"
	}
	return ""
}

// isSelfAppend reports whether rhs is append(obj, ...) for the same
// variable obj.
func isSelfAppend(pkg *Package, obj types.Object, rhs ast.Expr) bool {
	call, ok := unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || !isBuiltin(pkg, id) {
		return false
	}
	root := rootIdent(call.Args[0])
	return root != nil && pkg.Info.Uses[root] == obj
}

// isBuiltin reports whether id resolves to a language builtin (or is
// unresolved, which only builtins are in well-typed code).
func isBuiltin(pkg *Package, id *ast.Ident) bool {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// isIntegerType reports whether t's underlying type is an integer kind.
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
