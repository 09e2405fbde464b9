// Package poolescape keeps the sync.Pool discipline of the scan and
// aggregation kernels true by construction: every Get in non-test code
// reads
//
//	v := pool.Get().(*T)
//	defer pool.Put(v)
//
// — bound to a local, the next statement the deferred Put of that local
// into that pool, and no other Put of it. In that shape the value goes
// back on every path, panics included, exactly once, and is never used
// after its Put, so the rule is syntactic. A value stored somewhere that
// outlives the function is two scans sharing a scratch buffer — a data
// race, left to the -race suites (DESIGN.md "Which analyzers stay").
package poolescape

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"hybridolap/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc:  "a sync.Pool Get is bound to a local and followed at once by `defer samePool.Put(thatLocal)`, its only Put",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		bound := map[*ast.CallExpr]bool{} // Gets bound to a local, and the defer Puts that follow them
		pooled := map[*types.Var]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			}
			for i, s := range list {
				get, v := boundGet(pass, s)
				if get == nil {
					continue
				}
				bound[get], pooled[v] = true, true
				pool := types.ExprString(ast.Unparen(get.Fun).(*ast.SelectorExpr).X)
				want := fmt.Sprintf("defer %s.Put(%s)", pool, v.Name())
				if i+1 < len(list) {
					if d, ok := list[i+1].(*ast.DeferStmt); ok && "defer "+types.ExprString(d.Call) == want {
						bound[d.Call] = true
						continue
					}
				}
				insert := "\n" + strings.Repeat("\t", pass.Fset.Position(s.Pos()).Column-1) + want
				pass.ReportWithFix(s.Pos(),
					fmt.Sprintf("sync.Pool value %s must be followed at once by %s", v.Name(), want),
					analysis.SuggestedFix{
						Message:   "insert " + want + " after the Get",
						TextEdits: []analysis.TextEdit{{Pos: s.End(), End: s.End(), NewText: insert}},
					})
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || bound[call] {
				return true
			}
			switch poolMethod(pass, call) {
			case "Get":
				pass.Reportf(call.Pos(), "sync.Pool Get must be bound to a local variable by a statement of its own, followed by defer Put")
			case "Put":
				id, _ := ast.Unparen(call.Args[0]).(*ast.Ident)
				if v, _ := pass.TypesInfo.Uses[id].(*types.Var); pooled[v] {
					pass.Reportf(call.Pos(), "sync.Pool value %s has a Put other than the defer after its Get", v.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}

// boundGet matches `v := pool.Get()` or `v = pool.Get()`, through a type
// assertion, where v is a local variable.
func boundGet(pass *analysis.Pass, s ast.Stmt) (*ast.CallExpr, *types.Var) {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	e := ast.Unparen(as.Rhs[0])
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	id, isIdent := as.Lhs[0].(*ast.Ident)
	if ok && isIdent && poolMethod(pass, call) == "Get" {
		if v, _ := pass.TypesInfo.ObjectOf(id).(*types.Var); v != nil && v.Parent() != pass.Pkg.Scope() {
			return call, v
		}
	}
	return nil, nil
}

// poolMethod names the sync.Pool method call invokes, "" for any other call.
func poolMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := pass.PkgFunc(call); fn != nil && strings.HasPrefix(fn.FullName(), "(*sync.Pool).") {
		return fn.Name()
	}
	return ""
}
