// Package lockdiscipline enforces mutex hygiene with a block rule: a
// sync.Mutex/RWMutex Lock() or RLock() statement is followed by `defer
// X.Unlock()` (or RUnlock) as its next statement, or by the matching
// unlock later in the same statement list, with no return, break,
// continue, goto or panic between. A region that needs an early exit ends
// through a small helper with defer, or unlocks before it branches; a
// function literal is its own body. An unlock skipped on one exit
// deadlocks the next caller, and no path analysis is needed to rule that
// out. Copying a mutex by value is `go vet`'s copylocks.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"hybridolap/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "require each sync.Mutex/RWMutex Lock() to be followed by defer Unlock() or by its " +
		"Unlock() later in the same block, with no return, break, continue, goto or panic between",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	pass.Preorder(func(n ast.Node) bool {
		if n == nil || pass.IsTestFile(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.BlockStmt:
			checkList(pass, n.List)
		case *ast.CaseClause:
			checkList(pass, n.Body)
		case *ast.CommClause:
			checkList(pass, n.Body)
		}
		return true
	})
	return nil, nil
}

// releaseOf maps each lock method to the method that releases it.
var releaseOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// checkList applies the block rule to every lock statement of one list: its
// region ends at the matching unlock, or at once under a defer next.
func checkList(pass *analysis.Pass, list []ast.Stmt) {
	for i, s := range list {
		key, op := mutexCall(pass, s)
		release, ok := releaseOf[op]
		if !ok {
			continue
		}
		rest := list[i+1:]
		end := slices.IndexFunc(rest, func(t ast.Stmt) bool {
			k, o := mutexCall(pass, t)
			return k == key && (o == release || o == "defer "+release && t == rest[0])
		})
		if end < 0 {
			pass.Reportf(s.Pos(), "%s.%s not released in this block: defer %s.%s() next, or unlock later in this list", key, op, key, release)
			continue
		}
		for _, between := range rest[:end] {
			if exit := firstExit(pass, between); exit != nil {
				pass.Reportf(exit.Pos(), "exit inside the %s.%s region: end it in its own block (a helper with defer, or unlock first)", key, op)
				break
			}
		}
	}
}

// firstExit returns the first return, break, continue, goto or panic in
// s, not looking inside function literals.
func firstExit(pass *analysis.Pass, s ast.Stmt) (exit ast.Node) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exit = n
		case *ast.BranchStmt:
			if n.Tok != token.FALLTHROUGH {
				exit = n
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == types.Universe.Lookup("panic") {
				exit = n
			}
		}
		return exit == nil
	})
	return exit
}

// mutexCall classifies n, a call or a statement that makes one, as a
// method call on a sync.Mutex or sync.RWMutex: the receiver expression as
// the pairing key, and the method name, prefixed "defer " under a defer.
// Both are empty for anything else.
func mutexCall(pass *analysis.Pass, n ast.Node) (key, op string) {
	switch s := n.(type) {
	case *ast.ExprStmt:
		n = s.X
	case *ast.DeferStmt:
		n, op = s.Call, "defer "
	}
	if call, ok := n.(*ast.CallExpr); ok {
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if fn := pass.PkgFunc(call); isSel && fn != nil &&
			(strings.HasPrefix(fn.FullName(), "(*sync.Mutex).") || strings.HasPrefix(fn.FullName(), "(*sync.RWMutex).")) {
			return types.ExprString(sel.X), op + fn.Name()
		}
	}
	return "", ""
}
