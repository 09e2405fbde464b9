// Package ctxleak finds goroutines that outlive their usefulness: worker
// goroutines that block forever because an error path returned without
// closing the channel they range over, and loop goroutines that ignore
// cancellation entirely.
//
// The motivating code was the engine's real-execution mode and the GPU
// partition simulator: both fanned work out to per-resource worker
// goroutines fed by channels (Fig. 10's per-partition queues). Neither
// does any more — gpusim drains a shared cursor and the engine runs one
// inline attempt loop — so rule 1 now guards against the shape coming
// back (ROADMAP item 7 audits whether that earns its keep). The
// producer's happy path closes every channel after the final task, but an
// early `return err` between `go worker(ch)` and `close(ch)` strands the
// worker in a permanent channel receive — invisible to tests (the process
// exits) yet fatal for the long-running olapd server, where each failed
// query leaks goroutines until the scheduler starves.
//
// Two rules:
//
//  1. A function that makes a channel, starts a goroutine consuming it
//     (an inline `for range ch` literal, or a call to a function whose
//     ChanWorker fact says it ranges over that parameter), and then
//     returns on a path where the channel is not yet closed, is
//     diagnosed at the leaking return. The fix inserts the missing
//     close. Consumer functions are recognized across packages via
//     facts: the worker package's pass records which parameters block.
//
//  2. A goroutine whose body loops forever (`for {}` or `for range ch`)
//     inside a function that has a context.Context in scope, without
//     referencing any context variable, ignores cancellation and is
//     diagnosed at the go statement.
package ctxleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hybridolap/internal/analysis"
)

// ChanWorker is the fact recording that a function blocks ranging over
// the channel parameters at the given indices.
type ChanWorker struct {
	Params []int
}

// AFact marks ChanWorker as a serializable fact.
func (*ChanWorker) AFact() {}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxleak",
	Doc: "find worker goroutines stranded by returns that skip close() " +
		"on the channel they range over (cross-package via ChanWorker " +
		"facts), and loop goroutines that ignore an in-scope context",
	Run:       run,
	FactTypes: []analysis.Fact{(*ChanWorker)(nil)},
}

func run(pass *analysis.Pass) (any, error) {
	exportWorkerFacts(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			checkLeaks(pass, fd)
			checkIgnoredContext(pass, fd)
		}
	}
	return nil, nil
}

// chanBased reports whether t is a channel or a slice/array of channels
// (the per-partition `[]chan task` fan-out shape).
func chanBased(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Slice:
		return chanBased(u.Elem())
	case *types.Array:
		return chanBased(u.Elem())
	}
	return false
}

// rootObj unwraps indexing and parens to the object an expression is
// rooted at: gpuCh[i] → gpuCh.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		default:
			return nil
		}
	}
}

// exportWorkerFacts records, for every function in this package, which
// channel parameters its body blocks ranging over.
func exportWorkerFacts(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				continue
			}
			var blocked []int
			for i := 0; i < sig.Params().Len(); i++ {
				param := sig.Params().At(i)
				if _, ok := param.Type().Underlying().(*types.Chan); !ok {
					continue
				}
				if rangesOver(pass, fd.Body, param) {
					blocked = append(blocked, i)
				}
			}
			if len(blocked) > 0 {
				pass.ExportObjectFact(fn, &ChanWorker{Params: blocked})
			}
		}
	}
}

// rangesOver reports whether body contains `for range <obj>` outside
// nested function literals.
func rangesOver(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rs, ok := n.(*ast.RangeStmt); ok && rootObj(pass, rs.X) == obj {
			found = true
		}
		return !found
	})
	return found
}

// armedChan is one channel with a consumer goroutine blocked on it.
type armedChan struct {
	obj  types.Object
	name string
}

// checkLeaks applies rule 1 to one function using the same linear
// top-level statement model as lockdiscipline: a channel becomes "open"
// at the statement that starts its consumer goroutine and stays open
// until a statement that closes it; any return in between leaks.
func checkLeaks(pass *analysis.Pass, fd *ast.FuncDecl) {
	local := localChannels(pass, fd.Body)
	if len(local) == 0 {
		return
	}
	var open []armedChan
	for _, stmt := range fd.Body.List {
		stmt := stmt
		remaining := open[:0]
		for _, a := range open {
			if closesChan(pass, stmt, a.obj) {
				continue
			}
			remaining = append(remaining, a)
		}
		open = remaining
		if len(open) > 0 {
			reportLeakyReturns(pass, stmt, open)
		}
		open = append(open, armsIn(pass, stmt, local)...)
	}
}

// localChannels collects channel-typed variables declared inside the
// function body — the channels this function owns and must close.
func localChannels(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	local := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		var idents []*ast.Ident
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					idents = append(idents, id)
				}
			}
		case *ast.ValueSpec:
			idents = n.Names
		default:
			return true
		}
		for _, id := range idents {
			if obj := pass.TypesInfo.Defs[id]; obj != nil && chanBased(obj.Type()) {
				local[obj] = true
			}
		}
		return true
	})
	return local
}

// armsIn finds consumer goroutines started within stmt: inline literals
// ranging over a local channel, and calls to functions whose ChanWorker
// fact marks a channel parameter, with a local channel argument.
func armsIn(pass *analysis.Pass, stmt ast.Stmt, local map[types.Object]bool) []armedChan {
	var armed []armedChan
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			for obj := range local {
				if rangesOver(pass, lit.Body, obj) {
					armed = append(armed, armedChan{obj: obj, name: obj.Name()})
				}
			}
			return false
		}
		if fn := pass.PkgFunc(g.Call); fn != nil {
			var fact ChanWorker
			if pass.ImportObjectFact(fn, &fact) {
				for _, i := range fact.Params {
					if i >= len(g.Call.Args) {
						continue
					}
					if obj := rootObj(pass, g.Call.Args[i]); obj != nil && local[obj] {
						armed = append(armed, armedChan{obj: obj, name: obj.Name()})
					}
				}
			}
		}
		return false
	})
	// Deterministic order regardless of map iteration.
	for i := 1; i < len(armed); i++ {
		for j := i; j > 0 && armed[j].name < armed[j-1].name; j-- {
			armed[j], armed[j-1] = armed[j-1], armed[j]
		}
	}
	return armed
}

// closesChan reports whether stmt closes ch on all paths it covers:
// either a direct close(ch...) or the fan-in idiom
// `for _, c := range chSlice { close(c) }`.
func closesChan(pass *analysis.Pass, stmt ast.Stmt, ch types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if rootObj(pass, n.Args[0]) == ch {
					found = true
				}
			}
		case *ast.RangeStmt:
			if rootObj(pass, n.X) != ch {
				return true
			}
			// for _, c := range ch { close(c) } closes every element.
			val, ok := n.Value.(*ast.Ident)
			if !ok {
				return true
			}
			elem := pass.TypesInfo.Defs[val]
			if elem == nil {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
						if rootObj(pass, call.Args[0]) == elem {
							found = true
						}
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// reportLeakyReturns diagnoses every return inside stmt while channels in
// open have blocked consumers, attaching a fix that closes them first.
func reportLeakyReturns(pass *analysis.Pass, stmt ast.Stmt, open []armedChan) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		names := make([]string, len(open))
		indent := strings.Repeat("\t", pass.Fset.Position(ret.Pos()).Column-1)
		var text strings.Builder
		for i, a := range open {
			names[i] = a.name
			text.WriteString(closeStmtFor(a, indent) + "\n" + indent)
		}
		// One edit per return: separate same-position insertions would be
		// rejected as conflicting by the fix engine.
		edits := []analysis.TextEdit{{Pos: ret.Pos(), End: ret.Pos(), NewText: text.String()}}
		pass.Report(analysis.Diagnostic{
			Pos: ret.Pos(),
			Message: "return leaks the goroutine consuming " + strings.Join(names, ", ") +
				": the channel is never closed on this path, so the worker blocks forever",
			Analyzer: pass.Analyzer.Name,
			SuggestedFixes: []analysis.SuggestedFix{{
				Message:   "close " + strings.Join(names, ", ") + " before returning",
				TextEdits: edits,
			}},
		})
		return true
	})
}

// closeStmtFor renders the close statement for one armed channel at the
// given indentation; slice fan-outs close every element.
func closeStmtFor(a armedChan, indent string) string {
	if _, ok := a.obj.Type().Underlying().(*types.Chan); ok {
		return "close(" + a.name + ")"
	}
	return "for _, c := range " + a.name + " {\n" + indent + "\tclose(c)\n" + indent + "}"
}

// checkIgnoredContext applies rule 2: an endless goroutine inside a
// function with a context in scope must consult it.
func checkIgnoredContext(pass *analysis.Pass, fd *ast.FuncDecl) {
	ctxVars := contextVars(pass, fd)
	if len(ctxVars) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		if loopsForever(pass, lit.Body) && !usesAny(pass, lit.Body, ctxVars) {
			pass.Reportf(g.Pos(),
				"goroutine loops forever but ignores the in-scope context: select on its Done channel so cancellation stops the worker")
		}
		return true
	})
}

// contextVars collects parameters and receiver-scope variables of type
// context.Context visible in fd.
func contextVars(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	if fd.Type.Params == nil {
		return vars
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isContext(obj.Type()) {
				vars[obj] = true
			}
		}
	}
	return vars
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// loopsForever reports whether body contains an unconditional for loop or
// a range over a channel — the shapes that only cancellation can stop.
func loopsForever(pass *analysis.Pass, body *ast.BlockStmt) bool {
	forever := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond == nil {
				forever = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					forever = true
				}
			}
		}
		return !forever
	})
	return forever
}

// usesAny reports whether body references any of the given objects.
func usesAny(pass *analysis.Pass, body *ast.BlockStmt, objs map[types.Object]bool) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			used = true
		}
		return !used
	})
	return used
}
