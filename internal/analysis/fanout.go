package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fanoutChecker flags the goroutine/fan-out mistakes that have bitten the
// fan-out paths (core.FanOut workers, hand-rolled goroutine pools):
//
//  1. a goroutine launched inside a loop whose closure reads the loop
//     variable instead of taking it as a parameter — safe under Go 1.22
//     per-iteration scoping but one refactor away from aliasing, and
//     banned in this codebase in favor of explicit parameters;
//  2. writes to variables captured from the enclosing function inside a
//     concurrently-executed closure (a FuncLit passed to FanOut, or a
//     goroutine spawned in a loop) without a mutex in the closure —
//     the sanctioned pattern is a per-index slot (results[i] = ...);
//  3. fire-and-forget goroutines: a go statement whose closure neither
//     operates on a channel nor calls WaitGroup.Done/Add has no join, so
//     its errors and completion are silently lost.
//
// Any callee named FanOut is treated as a fork-join combinator running its
// function-literal arguments concurrently. Goroutines spawning named
// functions (go worker()) are out of scope for rules 2 and 3.
func fanoutChecker() *Checker {
	return &Checker{
		Name: "fanout",
		Doc:  "flag goroutine/FanOut misuse: loop-variable capture, unsynchronized shared writes, missing join",
		Run:  runFanout,
	}
}

// loopScope is one loop body with the variables its header declares.
type loopScope struct {
	body *ast.BlockStmt
	vars []types.Object
}

func runFanout(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFanoutIn(pass, fd.Body)
		}
	}
}

func checkFanoutIn(pass *Pass, body *ast.BlockStmt) {
	loops := collectLoopScopes(pass, body)
	inLoop := func(pos token.Pos) []types.Object {
		var vars []types.Object
		for _, l := range loops {
			if l.body.Pos() <= pos && pos < l.body.End() {
				vars = append(vars, l.vars...)
			}
		}
		return vars
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			lit, ok := unparen(v.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			loopVars := inLoop(v.Pos())
			checkLoopCapture(pass, lit, loopVars)
			if len(loopVars) > 0 {
				checkSharedWrites(pass, lit)
			}
			if !hasJoinSignal(pass, lit) {
				pass.Reportf(v.Pos(), "fire-and-forget goroutine: no channel operation or WaitGroup call signals completion; errors are lost")
			}
		case *ast.CallExpr:
			callee := staticCallee(pass.Info, v)
			if callee == nil || callee.Name() != "FanOut" {
				return true
			}
			// Fork-join: the call blocks until the workers finish, so loop
			// variables are stable for the workers' lifetime — only
			// unsynchronized shared writes are a hazard here.
			for _, arg := range v.Args {
				if lit, ok := unparen(arg).(*ast.FuncLit); ok {
					checkSharedWrites(pass, lit)
				}
			}
		}
		return true
	})
}

// collectLoopScopes finds every for/range body and the loop variables its
// header declares.
func collectLoopScopes(pass *Pass, body *ast.BlockStmt) []loopScope {
	var out []loopScope
	addIdent := func(vars []types.Object, e ast.Expr) []types.Object {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars = append(vars, obj)
			}
		}
		return vars
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			var vars []types.Object
			if v.Key != nil {
				vars = addIdent(vars, v.Key)
			}
			if v.Value != nil {
				vars = addIdent(vars, v.Value)
			}
			out = append(out, loopScope{body: v.Body, vars: vars})
		case *ast.ForStmt:
			var vars []types.Object
			if init, ok := v.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, l := range init.Lhs {
					vars = addIdent(vars, l)
				}
			}
			out = append(out, loopScope{body: v.Body, vars: vars})
		}
		return true
	})
	return out
}

// checkLoopCapture reports loop variables read inside the closure body
// rather than passed as arguments.
func checkLoopCapture(pass *Pass, lit *ast.FuncLit, loopVars []types.Object) {
	if len(loopVars) == 0 {
		return
	}
	captured := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		for _, lv := range loopVars {
			if obj == lv && !captured[obj] {
				captured[obj] = true
				pass.Reportf(id.Pos(), "concurrent closure captures loop variable %s; pass it as an argument instead", id.Name)
			}
		}
		return true
	})
}

// checkSharedWrites reports assignments inside a concurrently-executed
// closure to variables declared outside it, unless the closure
// synchronizes with a mutex. Keyed writes (slice[i] = v) are the
// sanctioned per-index pattern and exempt.
func checkSharedWrites(pass *Pass, lit *ast.FuncLit) {
	if closureLocks(pass, lit) {
		return
	}
	isOuter := func(e ast.Expr) (*ast.Ident, bool) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil, false
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return nil, false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return nil, false
		}
		if lit.Pos() <= obj.Pos() && obj.Pos() < lit.End() {
			return nil, false // declared inside the closure (param or local)
		}
		return id, true
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // nested closures get their own analysis
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for _, l := range v.Lhs {
				if id, outer := isOuter(l); outer {
					pass.Reportf(id.Pos(), "concurrent closure writes shared variable %s without synchronization; use a per-index slot or a mutex", id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id, outer := isOuter(v.X); outer {
				pass.Reportf(id.Pos(), "concurrent closure writes shared variable %s without synchronization; use a per-index slot or a mutex", id.Name)
			}
		}
		return true
	})
}

// closureLocks reports whether the closure body acquires any sync mutex.
func closureLocks(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasJoinSignal reports whether the goroutine body communicates its
// completion: a channel send/receive/close/range, a select, or a
// sync.WaitGroup Done/Add call.
func hasJoinSignal(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(v.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			switch fun := unparen(v.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "close" && isBuiltinIdent(pass, fun) {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" || fun.Sel.Name == "Add" {
					if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// isBuiltinIdent reports whether id resolves to a language builtin.
func isBuiltinIdent(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}
