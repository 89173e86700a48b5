package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program view the cross-package checkers
// (lockorder, determinism) run on: every function with a body across the
// loaded packages, plus a conservative static call graph over them.
//
// Resolution strategy (DESIGN.md §12):
//
//   - direct calls to package functions and to methods with concrete
//     receiver types resolve exactly through go/types;
//   - calls through an interface are over-approximated: the callee set is
//     every method of a loaded concrete type that implements the interface
//     and declares the called method (interfaces from dependency packages
//     whose implementations live outside the load are invisible — their
//     bodies are not analyzed anyway);
//   - function literals are inlined into their enclosing declaration: a
//     closure's calls, lock acquisitions and map ranges are attributed to
//     the function that syntactically contains it. This deliberately treats
//     goroutine bodies (go, core.FanOut workers) as if they ran at the
//     spawn point, which over-approximates lock nesting the way a
//     fork-join fan-out actually behaves (the spawner blocks on the join
//     while workers acquire their locks);
//   - a named function or method value passed as a call argument is
//     treated as potentially called by the caller (the core.FanOut(f)
//     shape when f is not a literal).
//
// Calls into packages outside the load (the standard library) are leaves:
// their bodies are not traversed, so effects inside them are invisible.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet
	// Funcs indexes every function or method declaration with a body.
	Funcs map[*types.Func]*Func
	// byName provides deterministic iteration: Funcs sorted by position.
	ordered []*Func
}

// Func is one analyzable function: its declaration, package, and resolved
// static callees.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the resolved outgoing edges in source order.
	Calls []Call
}

// Call is one resolved call edge.
type Call struct {
	Callee *Func
	Pos    token.Pos
	// Interface marks an over-approximated edge through an interface
	// method set rather than an exact static target.
	Interface bool
}

// Name renders the function compactly for diagnostics: pkgname.Fn for
// package functions, (*pkgname.Recv).Fn for pointer-receiver methods.
func (f *Func) Name() string {
	obj := f.Obj
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + obj.Name()
	}
	rt := sig.Recv().Type()
	ptr := ""
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt, ptr = p.Elem(), "*"
	}
	recv := types.TypeString(rt, func(*types.Package) string { return "" })
	return fmt.Sprintf("(%s%s%s).%s", ptr, pkg, recv, obj.Name())
}

// BuildProgram indexes the packages' declared functions and resolves the
// call graph.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: make(map[*types.Func]*Func),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Pkg: pkg}
				prog.Funcs[obj] = fn
				prog.ordered = append(prog.ordered, fn)
			}
		}
	}
	sort.Slice(prog.ordered, func(i, j int) bool {
		return prog.ordered[i].Decl.Pos() < prog.ordered[j].Decl.Pos()
	})
	impl := newImplIndex(pkgs)
	for _, fn := range prog.ordered {
		prog.resolveCalls(fn, impl)
	}
	return prog
}

// Functions returns every indexed function in deterministic (position)
// order.
func (p *Program) Functions() []*Func { return p.ordered }

// resolveCalls walks fn's body (function literals included — inlined) and
// records resolved call edges.
func (p *Program) resolveCalls(fn *Func, impl *implIndex) {
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, target := range p.calleesOf(info, call, impl) {
			fn.Calls = append(fn.Calls, Call{Callee: target.fn, Pos: call.Pos(), Interface: target.iface})
		}
		// Function-valued arguments: a named function passed to another
		// call may be invoked by the callee (core.FanOut(n, f)).
		for _, arg := range call.Args {
			if target := p.funcValue(info, arg); target != nil {
				fn.Calls = append(fn.Calls, Call{Callee: target, Pos: arg.Pos()})
			}
		}
		return true
	})
}

// callTarget is one resolved callee.
type callTarget struct {
	fn    *Func
	iface bool
}

// calleesOf resolves the static callees of one call expression.
func (p *Program) calleesOf(info *types.Info, call *ast.CallExpr, impl *implIndex) []callTarget {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			if fn, ok := p.Funcs[obj]; ok {
				return []callTarget{{fn: fn}}
			}
		}
	case *ast.SelectorExpr:
		obj, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		if sel := info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return impl.methods(sel.Recv(), obj, p)
			}
		}
		if fn, ok := p.Funcs[obj]; ok {
			return []callTarget{{fn: fn}}
		}
	}
	return nil
}

// funcValue resolves an expression used as a value to a program function
// (named function or method value), or nil.
func (p *Program) funcValue(info *types.Info, e ast.Expr) *Func {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[v].(*types.Func); ok {
			if fn, ok := p.Funcs[obj]; ok {
				return fn
			}
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[v]; sel != nil && sel.Kind() == types.MethodVal {
			if obj, ok := info.Uses[v.Sel].(*types.Func); ok {
				if fn, ok := p.Funcs[obj]; ok {
					return fn
				}
			}
		}
	}
	return nil
}

// implIndex maps interface method calls to their concrete in-program
// implementations.
type implIndex struct {
	named []*types.Named // every named type declared in the load
	memo  map[string][]callTarget
}

func newImplIndex(pkgs []*Package) *implIndex {
	idx := &implIndex{memo: map[string][]callTarget{}}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				idx.named = append(idx.named, named)
			}
		}
	}
	sort.Slice(idx.named, func(i, j int) bool {
		return idx.named[i].Obj().Pos() < idx.named[j].Obj().Pos()
	})
	return idx
}

// methods returns the program methods that a call to iface-method m may
// dispatch to: m's implementation on every loaded concrete type whose
// pointer or value method set satisfies the interface.
func (x *implIndex) methods(recv types.Type, m *types.Func, p *Program) []callTarget {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := types.TypeString(recv, nil) + "." + m.Name()
	if out, ok := x.memo[key]; ok {
		return out
	}
	var out []callTarget
	for _, named := range x.named {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		var target types.Type = named
		if !types.Implements(target, iface) {
			target = types.NewPointer(named)
			if !types.Implements(target, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(target, true, m.Pkg(), m.Name())
		if mf, ok := obj.(*types.Func); ok {
			if fn, ok := p.Funcs[mf]; ok {
				out = append(out, callTarget{fn: fn, iface: true})
			}
		}
	}
	x.memo[key] = out
	return out
}

// Reachable computes the set of functions reachable from roots, with a
// parent edge per discovered function so diagnostics can print the call
// path root → … → f. BFS in deterministic order.
func (p *Program) Reachable(roots []*Func) map[*Func]*Func {
	parent := make(map[*Func]*Func, len(roots))
	queue := append([]*Func(nil), roots...)
	for _, r := range queue {
		parent[r] = nil
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, c := range fn.Calls {
			if _, seen := parent[c.Callee]; !seen {
				parent[c.Callee] = fn
				queue = append(queue, c.Callee)
			}
		}
	}
	return parent
}

// PathTo renders the call chain from a root to f given Reachable's parent
// map: "root → … → f".
func PathTo(parent map[*Func]*Func, f *Func) string {
	var chain []string
	for cur := f; cur != nil; {
		chain = append(chain, cur.Name())
		next, ok := parent[cur]
		if !ok {
			break
		}
		cur = next
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " → ")
}
