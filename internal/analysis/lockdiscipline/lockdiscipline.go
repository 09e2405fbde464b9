// Package lockdiscipline enforces mutex hygiene in packages that maintain
// shared queue state.
//
// The scheduler's partition queues (T_Q clocks, completion counters,
// feedback corrections) are mutated from worker goroutines; the paper's
// queue-clock update rule (eq. 17-18) is only correct if every read and
// update happens under the same lock. A Lock() whose Unlock() is missing,
// or skipped on an early return, deadlocks the queue the first time the
// error path is taken: the analyzer flags Lock()/RLock() calls without a
// pairing defer Unlock()/RUnlock() or an unlock on every return path.
//
// Copying a mutex by value — the other way to lose exclusion — is `go
// vet`'s copylocks, which `make vet` and CI run before this suite.
package lockdiscipline

import (
	"go/ast"
	"go/types"

	"hybridolap/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "flag sync.Mutex/sync.RWMutex Lock() calls without a pairing " +
		"defer Unlock() or an unlock on every return path",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, closureBindings: make(map[types.Object]ast.Expr)}
	// Prescan: record local func-valued bindings (`unlock := func() {…}`,
	// `unlock := sync.OnceFunc(…)`) so `defer unlock()` can be resolved to
	// the unlocks the bound closure performs.
	pass.Preorder(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				c.recordBinding(lhs, n.Rhs[i])
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, name := range n.Names {
				c.recordBinding(name, n.Values[i])
			}
		}
		return true
	})
	pass.Preorder(func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pass.IsTestFile(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				c.checkBody(n.Body)
			}
		case *ast.FuncLit:
			c.checkBody(n.Body)
		}
		return true
	})
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	// closureBindings maps a func-valued variable to the expression it was
	// bound to; deferredUnlocks resolves `defer name()` through it.
	closureBindings map[types.Object]ast.Expr
}

// recordBinding remembers lhs = rhs when lhs is an identifier bound to a
// function-typed expression. A rebinding overwrites: for lint purposes the
// most recent closure wins, which can at worst hide a leak, never invent
// one.
func (c *checker) recordBinding(lhs ast.Expr, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
		return
	}
	c.closureBindings[obj] = rhs
}

// lockCall classifies a statement as a Lock/Unlock call on a mutex-typed
// receiver, returning the stringified receiver expression as pairing key.
func (c *checker) lockCall(call *ast.CallExpr) (key, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	t := c.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// unlockFor maps a lock method to its releasing counterpart.
func unlockFor(name string) string {
	if name == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// deferredUnlocks returns the "key.Op" pairs a defer statement releases:
// a direct mu.Unlock, an immediately-invoked closure, or a named local
// binding of a closure — including one wrapped in sync.OnceFunc, the
// idiomatic shape for an unlock that several paths may trigger.
func (c *checker) deferredUnlocks(d *ast.DeferStmt) []string {
	if key, name, ok := c.lockCall(d.Call); ok {
		if name == "Unlock" || name == "RUnlock" {
			return []string{key + "." + name}
		}
		return nil
	}
	return c.closureUnlocks(d.Call.Fun, make(map[types.Object]bool))
}

// closureUnlocks resolves a function-valued expression to the unlocks
// invoking it performs, following local bindings and sync.OnceFunc
// wrappers. seen breaks rebinding cycles.
func (c *checker) closureUnlocks(e ast.Expr, seen map[types.Object]bool) []string {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return c.literalUnlocks(e)
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil || seen[obj] {
			return nil
		}
		seen[obj] = true
		if bound, ok := c.closureBindings[obj]; ok {
			return c.closureUnlocks(bound, seen)
		}
	case *ast.CallExpr:
		if c.isOnceFunc(e) && len(e.Args) == 1 {
			return c.closureUnlocks(e.Args[0], seen)
		}
	}
	return nil
}

// literalUnlocks collects the unlock calls a function literal performs.
func (c *checker) literalUnlocks(lit *ast.FuncLit) []string {
	var released []string
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if key, name, ok2 := c.lockCall(call); ok2 && (name == "Unlock" || name == "RUnlock") {
				released = append(released, key+"."+name)
			}
		}
		return true
	})
	return released
}

// isOnceFunc reports whether call invokes sync.OnceFunc.
func (c *checker) isOnceFunc(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "OnceFunc"
}

// releases reports whether defer d releases key with unlockOp.
func (c *checker) releases(d *ast.DeferStmt, key, unlockOp string) bool {
	for _, r := range c.deferredUnlocks(d) {
		if r == key+"."+unlockOp {
			return true
		}
	}
	return false
}

// checkBody verifies lock/unlock pairing inside one function body. Nested
// function literals are separate scopes and are skipped here (Preorder
// visits them independently).
func (c *checker) checkBody(body *ast.BlockStmt) {
	type lockSite struct {
		pos      ast.Node
		key      string
		unlockOp string
	}
	var locks []lockSite
	unlocks := make(map[string]int) // "key.Unlock" -> count, deferred or direct

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // separate scope
			case *ast.DeferStmt:
				for _, released := range c.deferredUnlocks(m) {
					unlocks[released]++
				}
				return false
			case *ast.CallExpr:
				if key, name, ok := c.lockCall(m); ok {
					switch name {
					case "Lock", "RLock":
						locks = append(locks, lockSite{pos: m, key: key, unlockOp: unlockFor(name)})
					case "Unlock", "RUnlock":
						unlocks[key+"."+name]++
					}
				}
			}
			return true
		})
	}
	walk(body)

	for _, l := range locks {
		if unlocks[l.key+"."+l.unlockOp] == 0 {
			c.pass.Reportf(l.pos.Pos(),
				"%s locked but never %sed in this function: pair Lock with defer Unlock",
				l.key, l.unlockOp)
		}
	}

	// Second pass: within each statement list, a Lock followed by a plain
	// return before any unlock (deferred or direct) leaks the lock on that
	// path.
	c.checkReturnPaths(body)
}

// checkReturnPaths scans every statement list of the body. After a
// Lock(key) statement, encountering a return — or a nested statement that
// can return without unlocking key — before the unlock is a leak.
func (c *checker) checkReturnPaths(body *ast.BlockStmt) {
	var scanList func(stmts []ast.Stmt)

	// containsReturnSansUnlock reports whether n contains a return
	// statement but no unlock of key (so taking that branch leaks).
	containsReturnSansUnlock := func(n ast.Stmt, key, unlockOp string) bool {
		hasReturn, hasUnlock := false, false
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				hasReturn = true
			case *ast.CallExpr:
				if k, name, ok := c.lockCall(m); ok && k == key && name == unlockOp {
					hasUnlock = true
				}
			}
			return true
		})
		return hasReturn && !hasUnlock
	}

	scanList = func(stmts []ast.Stmt) {
		for i, s := range stmts {
			// Recurse into nested blocks for their own lists.
			switch s := s.(type) {
			case *ast.BlockStmt:
				scanList(s.List)
			case *ast.IfStmt:
				scanList(s.Body.List)
				if b, ok := s.Else.(*ast.BlockStmt); ok {
					scanList(b.List)
				}
			case *ast.ForStmt:
				scanList(s.Body.List)
			case *ast.RangeStmt:
				scanList(s.Body.List)
			case *ast.SwitchStmt:
				for _, cl := range s.Body.List {
					if cc, ok := cl.(*ast.CaseClause); ok {
						scanList(cc.Body)
					}
				}
			case *ast.SelectStmt:
				for _, cl := range s.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok {
						scanList(cc.Body)
					}
				}
			}

			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			key, name, ok := c.lockCall(call)
			if !ok || (name != "Lock" && name != "RLock") {
				continue
			}
			unlockOp := unlockFor(name)

			// Walk forward in this list until the lock is resolved: a
			// matching defer or direct unlock ends the critical section;
			// a return (or a branch that can return) first leaks it.
		forward:
			for _, after := range stmts[i+1:] {
				switch after := after.(type) {
				case *ast.DeferStmt:
					if c.releases(after, key, unlockOp) {
						break forward
					}
				case *ast.ExprStmt:
					if call2, ok2 := after.X.(*ast.CallExpr); ok2 {
						if k, n2, ok3 := c.lockCall(call2); ok3 && k == key && n2 == unlockOp {
							break forward
						}
					}
				case *ast.ReturnStmt:
					c.pass.Reportf(after.Pos(),
						"return leaks %s.%s acquired at this scope: unlock before returning or use defer",
						key, name)
					break forward
				default:
					if containsReturnSansUnlock(after, key, unlockOp) {
						c.pass.Reportf(after.Pos(),
							"branch may return without releasing %s.%s: unlock on every path or use defer",
							key, name)
						break forward
					}
				}
			}
		}
	}
	scanList(body.List)
}
