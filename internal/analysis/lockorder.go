package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorderChecker enforces a declared partial order over lock classes
// against the observed inter-procedural lock graph. The order is declared
// in source with
//
//	//lint:lockorder ppdb.DB < wal.Log
//
// where each class is pkgname.TypeName for a struct carrying a mutex field
// (or pkgname.varname for a package-level mutex). Directives compose: the
// union of all chains is transitively closed.
//
// The checker walks every function body (closures inlined, per
// callgraph.go) tracking the multiset of lock classes held — Lock/RLock
// acquires, Unlock/RUnlock releases, deferred unlocks hold to function
// end — and records an edge A→B whenever B is acquired with A held, either
// directly or through any chain of calls (interface calls
// over-approximated). An edge is reported when the declared order puts B
// before A, or when it closes a cycle among observed classes; the
// diagnostic names the full call path from the holding function to the
// acquiring one. Nested acquisitions of the same class (several values of
// one type) are out of scope.
func lockorderChecker() *Checker {
	return &Checker{
		Name:       "lockorder",
		Doc:        "enforce the declared //lint:lockorder partial order over the inter-procedural lock graph",
		RunProgram: runLockorder,
	}
}

const lockorderPrefix = "//lint:lockorder"

// lockOrderDecl is the merged, transitively closed declared order.
type lockOrderDecl struct {
	classes map[string]bool
	before  map[string]map[string]bool // before[a][b]: a must be acquired before b
}

// parseLockOrder collects //lint:lockorder directives across the program,
// reporting malformed or self-contradictory ones.
func parseLockOrder(pass *ProgramPass) *lockOrderDecl {
	d := &lockOrderDecl{classes: map[string]bool{}, before: map[string]map[string]bool{}}
	addBefore := func(a, b string) {
		if d.before[a] == nil {
			d.before[a] = map[string]bool{}
		}
		d.before[a][b] = true
	}
	var firstPos token.Pos
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, lockorderPrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, lockorderPrefix))
					parts := strings.Split(rest, "<")
					var chain []string
					ok := len(parts) >= 2
					for _, p := range parts {
						p = strings.TrimSpace(p)
						if !validLockClass(p) {
							ok = false
							break
						}
						chain = append(chain, p)
					}
					if !ok {
						pass.Reportf(c.Pos(), "malformed lint:lockorder directive: want //lint:lockorder pkg.Class < pkg.Class [< ...]")
						continue
					}
					if firstPos == token.NoPos {
						firstPos = c.Pos()
					}
					for i, a := range chain {
						d.classes[a] = true
						for _, b := range chain[i+1:] {
							addBefore(a, b)
						}
					}
				}
			}
		}
	}
	// Transitive closure, then reject orders that cycle back on themselves.
	classes := sortedStringSet(d.classes)
	for _, k := range classes {
		for _, a := range classes {
			for _, b := range classes {
				if d.before[a][k] && d.before[k][b] {
					addBefore(a, b)
				}
			}
		}
	}
	for _, a := range classes {
		if d.before[a][a] {
			pass.Reportf(firstPos, "conflicting lint:lockorder directives: %s is ordered before itself", a)
			return &lockOrderDecl{classes: map[string]bool{}, before: map[string]map[string]bool{}}
		}
	}
	return d
}

// validLockClass matches pkgname.Name with both halves non-empty
// identifiers.
func validLockClass(s string) bool {
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if i == dot {
			continue
		}
		if !isNameRune(s[i]) {
			return false
		}
	}
	return true
}

// lockClass names the lock class of a mutex expression: the named struct
// type owning the mutex field ("ppdb.DB"), a package-level mutex variable
// ("fault.mu"), or the receiver type of an embedded-mutex Lock call. Local
// mutexes return "" and are not tracked.
func lockClass(pkg *Package, e ast.Expr) string {
	e = unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			t := s.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name()
			}
			return ""
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				if vr, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && vr.Pkg() != nil {
					return vr.Pkg().Name() + "." + vr.Name()
				}
			}
		}
		return ""
	}
	if id, ok := e.(*ast.Ident); ok {
		if vr, ok := pkg.Info.Uses[id].(*types.Var); ok && vr.Pkg() != nil {
			if vr.Parent() == vr.Pkg().Scope() {
				return vr.Pkg().Name() + "." + vr.Name()
			}
		}
	}
	return ""
}

// lockOp classifies a call as a lock acquire (+1) or release (-1) of a
// class, resolving embedded-mutex calls (x.Lock()) through the receiver
// expression's type.
func lockOp(pkg *Package, call *ast.CallExpr) (string, int) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	var op int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = 1
	case "Unlock", "RUnlock":
		op = -1
	default:
		return "", 0
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0
	}
	class := lockClass(pkg, sel.X)
	if class == "" {
		// Embedded mutex: x.Lock() where x is the owning struct itself.
		if t := pkg.Info.TypeOf(sel.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() != "sync" {
				class = n.Obj().Pkg().Name() + "." + n.Obj().Name()
			}
		}
	}
	return class, op
}

// lockEdge is one observed "to acquired while from is held" edge with a
// witness position and call path.
type lockEdge struct {
	from, to string
	pos      token.Pos
	path     string
}

// lockedCall is a call made while at least one lock class is held.
type lockedCall struct {
	callee *Func
	held   []string
	pos    token.Pos
}

// fnLockInfo is the per-function lock summary.
type fnLockInfo struct {
	direct   []lockEdge           // intra-procedural nesting edges
	acquired map[string]token.Pos // classes acquired anywhere in the body
	calls    []lockedCall
}

// lockWalk scans fn's body in source order, tracking the held multiset.
// Branch bodies are walked sequentially under the conservative assumption
// that each is lock-balanced; deferred unlocks are skipped so their class
// stays held to the end of the function.
func lockWalk(fn *Func) *fnLockInfo {
	info := &fnLockInfo{acquired: map[string]token.Pos{}}
	pkg := fn.Pkg
	callees := map[token.Pos][]*Func{}
	for _, c := range fn.Calls {
		callees[c.Pos] = append(callees[c.Pos], c.Callee)
	}
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if _, op := lockOp(pkg, d.Call); op == -1 {
				deferred[d.Call] = true
			}
		}
		return true
	})
	var held []string
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || deferred[call] {
			return true
		}
		if class, op := lockOp(pkg, call); op != 0 {
			if class == "" {
				return true
			}
			if op == 1 {
				if _, seen := info.acquired[class]; !seen {
					info.acquired[class] = call.Pos()
				}
				for _, h := range distinctInOrder(held) {
					if h != class {
						info.direct = append(info.direct, lockEdge{from: h, to: class, pos: call.Pos(), path: fn.Name()})
					}
				}
				held = append(held, class)
			} else {
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == class {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return true
		}
		if len(held) > 0 {
			snap := distinctInOrder(held)
			positions := []token.Pos{call.Pos()}
			for _, a := range call.Args {
				positions = append(positions, a.Pos())
			}
			for _, p := range positions {
				for _, g := range callees[p] {
					info.calls = append(info.calls, lockedCall{callee: g, held: snap, pos: call.Pos()})
				}
			}
		}
		return true
	})
	return info
}

// distinctInOrder deduplicates preserving first occurrence.
func distinctInOrder(s []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range s {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// sortedStringSet returns the keys of m in sorted order.
func sortedStringSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// computeAcquires propagates "may acquire class C" backwards over call
// edges to a fixpoint. The result maps each function and class to the next
// hop toward a direct acquisition (nil for a direct one), which
// reconstructs a witness call path. First-discovery order is deterministic
// (functions in position order, calls in source order).
func computeAcquires(prog *Program, infos map[*Func]*fnLockInfo) map[*Func]map[string]*Func {
	acq := map[*Func]map[string]*Func{}
	for _, fn := range prog.Functions() {
		m := map[string]*Func{}
		for class := range infos[fn].acquired {
			m[class] = nil
		}
		acq[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Functions() {
			for _, c := range fn.Calls {
				for _, class := range sortedAcqClasses(acq[c.Callee]) {
					if _, ok := acq[fn][class]; !ok {
						acq[fn][class] = c.Callee
						changed = true
					}
				}
			}
		}
	}
	return acq
}

func sortedAcqClasses(m map[string]*Func) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// acquirePath renders the witness call chain from fn to the function that
// directly acquires class.
func acquirePath(acq map[*Func]map[string]*Func, fn *Func, class string) string {
	var parts []string
	for cur := fn; ; {
		parts = append(parts, cur.Name())
		next, ok := acq[cur][class]
		if !ok || next == nil {
			break
		}
		cur = next
	}
	return strings.Join(parts, " → ")
}

func runLockorder(pass *ProgramPass) {
	decl := parseLockOrder(pass)
	prog := pass.Prog
	infos := map[*Func]*fnLockInfo{}
	for _, fn := range prog.Functions() {
		infos[fn] = lockWalk(fn)
	}
	acq := computeAcquires(prog, infos)

	var edges []lockEdge
	for _, fn := range prog.Functions() {
		in := infos[fn]
		edges = append(edges, in.direct...)
		for _, lc := range in.calls {
			for _, class := range sortedAcqClasses(acq[lc.callee]) {
				path := fn.Name() + " → " + acquirePath(acq, lc.callee, class)
				for _, h := range lc.held {
					if h != class {
						edges = append(edges, lockEdge{from: h, to: class, pos: lc.pos, path: path})
					}
				}
			}
		}
	}
	// One witness per ordered class pair: first edge wins (deterministic:
	// function position order, then source order within a function).
	seen := map[[2]string]bool{}
	var unique []lockEdge
	for _, e := range edges {
		key := [2]string{e.from, e.to}
		if !seen[key] {
			seen[key] = true
			unique = append(unique, e)
		}
	}

	reported := map[[2]string]bool{}
	for _, e := range unique {
		if decl.classes[e.from] && decl.classes[e.to] && decl.before[e.to][e.from] {
			reported[[2]string{e.from, e.to}] = true
			pass.Reportf(e.pos, "lock order violation: %s acquired while holding %s (declared order requires %s < %s); call path: %s",
				e.to, e.from, e.to, e.from, e.path)
		}
	}

	// Cycle detection over the observed graph, declared classes or not.
	reach := map[string]map[string]bool{}
	addReach := func(a, b string) {
		if reach[a] == nil {
			reach[a] = map[string]bool{}
		}
		reach[a][b] = true
	}
	nodes := map[string]bool{}
	for _, e := range unique {
		addReach(e.from, e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	order := sortedStringSet(nodes)
	for _, k := range order {
		for _, a := range order {
			for _, b := range order {
				if reach[a][k] && reach[k][b] {
					addReach(a, b)
				}
			}
		}
	}
	for _, e := range unique {
		if reported[[2]string{e.from, e.to}] {
			continue
		}
		if reach[e.to][e.from] {
			pass.Reportf(e.pos, "lock cycle: acquiring %s while holding %s closes a cycle in the lock graph; call path: %s",
				e.to, e.from, e.path)
		}
	}
}
