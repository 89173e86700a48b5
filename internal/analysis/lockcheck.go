package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockcheckChecker enforces the lock discipline of structs that guard
// shared state with a sync.Mutex/sync.RWMutex field (ppdb.DB, which also
// guards every row table, and ppdb.Audit are the hot paths):
//
//  1. an exported pointer-receiver method that reads or writes a mutated
//     sibling field without acquiring the struct's lock is flagged
//     (unexported methods are assumed to run with the lock held, and
//     fields only ever assigned during construction are treated as
//     immutable);
//  2. an exported method that does lock but returns a map, slice or
//     pointer field of the guarded state is flagged — the alias escapes
//     the critical section and later reads race with writers. Pointers to
//     structs that carry their own mutex are a safe handoff and exempt.
func lockcheckChecker() *Checker {
	return &Checker{
		Name: "lockcheck",
		Doc:  "flag unlocked access to mutex-guarded fields and guarded aliases escaping the critical section",
		Run:  runLockcheck,
	}
}

// guardedStruct is one struct type with at least one mutex field.
type guardedStruct struct {
	named   *types.Named
	locks   map[string]bool // mutex/rwmutex field names
	mutated map[string]bool // fields written by some method (guarded state)
	methods []*ast.FuncDecl
	recvs   map[*ast.FuncDecl]*types.Var // receiver object per method
}

func runLockcheck(pass *Pass) {
	guarded := collectGuarded(pass)
	if len(guarded) == 0 {
		return
	}
	for _, g := range guarded {
		computeMutated(pass, g)
	}
	for _, g := range guarded {
		for _, m := range g.methods {
			checkMethod(pass, g, m)
		}
	}
}

// isMutexType matches sync.Mutex and sync.RWMutex (non-pointer).
func isMutexType(t types.Type) bool {
	if _, ptr := t.(*types.Pointer); ptr {
		return false
	}
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// collectGuarded finds this package's mutex-guarded structs and their
// declared methods.
func collectGuarded(pass *Pass) []*guardedStruct {
	byType := map[*types.Named]*guardedStruct{}
	var out []*guardedStruct
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		locks := map[string]bool{}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutexType(f.Type()) {
				locks[f.Name()] = true
			}
		}
		if len(locks) == 0 {
			continue
		}
		g := &guardedStruct{
			named:   named,
			locks:   locks,
			mutated: map[string]bool{},
			recvs:   map[*ast.FuncDecl]*types.Var{},
		}
		byType[named] = g
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			} else {
				continue // value receiver: vet's copylocks owns that case
			}
			named, ok := rt.(*types.Named)
			if !ok {
				continue
			}
			g, ok := byType[named]
			if !ok {
				continue
			}
			names := fd.Recv.List[0].Names
			if len(names) == 0 || names[0].Name == "_" {
				continue
			}
			rv, ok := pass.Info.Defs[names[0]].(*types.Var)
			if !ok {
				continue
			}
			g.methods = append(g.methods, fd)
			g.recvs[fd] = rv
		}
	}
	return out
}

// computeMutated marks fields written by any method body: direct
// assignment, compound assignment, ++/--, element assignment, delete(), or
// having their address taken. Fields only set by constructors stay
// immutable and exempt from locking.
func computeMutated(pass *Pass, g *guardedStruct) {
	markLHS := func(recv *types.Var, e ast.Expr) {
		if name, ok := receiverField(pass, recv, e); ok {
			g.mutated[name] = true
		}
		// Element writes (m[k] = v) mutate the field's contents.
		if ix, ok := unparen(e).(*ast.IndexExpr); ok {
			if name, ok := receiverField(pass, recv, ix.X); ok {
				g.mutated[name] = true
			}
		}
	}
	for _, m := range g.methods {
		recv := g.recvs[m]
		ast.Inspect(m.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range node.Lhs {
					markLHS(recv, lhs)
				}
			case *ast.IncDecStmt:
				markLHS(recv, node.X)
			case *ast.UnaryExpr:
				if node.Op == token.AND {
					markLHS(recv, node.X)
				}
			case *ast.CallExpr:
				if id, ok := unparen(node.Fun).(*ast.Ident); ok && id.Name == "delete" && len(node.Args) > 0 {
					markLHS(recv, node.Args[0])
				}
			case *ast.RangeStmt:
				if node.Key != nil {
					markLHS(recv, node.Key)
				}
				if node.Value != nil {
					markLHS(recv, node.Value)
				}
			}
			return true
		})
	}
}

// receiverField resolves e to a direct field selection recv.F and returns
// the field name.
func receiverField(pass *Pass, recv *types.Var, e ast.Expr) (string, bool) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok || pass.Info.Uses[id] != recv {
		return "", false
	}
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return "", false
	}
	return sel.Sel.Name, true
}

// acquiresLock reports whether the method body contains a Lock/RLock call
// on the receiver's mutex (recv.mu.Lock(), or recv.Lock() via an embedded
// mutex).
func acquiresLock(pass *Pass, recv *types.Var, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		if id := rootIdent(sel.X); id != nil && pass.Info.Uses[id] == recv {
			found = true
			return false
		}
		return true
	})
	return found
}

func checkMethod(pass *Pass, g *guardedStruct, m *ast.FuncDecl) {
	if !m.Name.IsExported() {
		return // unexported: assumed to run under the caller's lock
	}
	recv := g.recvs[m]
	qual := relativeTo(pass.Pkg)
	typeName := g.named.Obj().Name()
	lockNames := make([]string, 0, len(g.locks))
	for n := range g.locks {
		lockNames = append(lockNames, n)
	}
	sort.Strings(lockNames)
	lockLabel := typeName + "." + strings.Join(lockNames, "/")

	if !acquiresLock(pass, recv, m.Body) {
		// Rule 1: unlocked access to guarded (mutated) sibling fields.
		var fields []string
		seen := map[string]bool{}
		var firstPos ast.Node
		ast.Inspect(m.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name, ok := receiverField(pass, recv, sel)
			if !ok || g.locks[name] || !g.mutated[name] {
				return true
			}
			if !seen[name] {
				seen[name] = true
				fields = append(fields, name)
			}
			if firstPos == nil {
				firstPos = sel
			}
			return true
		})
		if len(fields) > 0 {
			sort.Strings(fields)
			pass.Reportf(firstPos.Pos(),
				"exported method (*%s).%s accesses guarded field(s) %s without acquiring %s",
				typeName, m.Name.Name, strings.Join(fields, ", "), lockLabel)
		}
		return
	}

	// Rule 2: guarded aliases escaping the critical section via return.
	ast.Inspect(m.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			name, ok := guardedChainRoot(pass, recv, res)
			if !ok || g.locks[name] || !g.mutated[name] {
				continue
			}
			t := pass.TypeOf(res)
			if t == nil || !escapes(t) {
				continue
			}
			pass.Reportf(res.Pos(),
				"(*%s).%s returns guarded field %s (%s); the alias escapes %s's critical section — return a copy or document immutability",
				typeName, m.Name.Name, name, types.TypeString(t, qual), lockLabel)
		}
		return true
	})
}

// guardedChainRoot resolves a returned expression to the receiver field at
// the root of a pure selector chain (recv.f, recv.f.g), if any.
func guardedChainRoot(pass *Pass, recv *types.Var, e ast.Expr) (string, bool) {
	e = unparen(e)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		if name, ok := receiverField(pass, recv, sel); ok {
			return name, true
		}
		e = unparen(sel.X)
	}
}

// escapes reports whether returning a value of type t aliases shared
// state: maps, slices, and pointers to structs without their own mutex
// (self-locking structs are a safe handoff).
func escapes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	case *types.Pointer:
		if st, ok := u.Elem().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if isMutexType(st.Field(i).Type()) {
					return false
				}
			}
		}
		return true
	}
	return false
}
