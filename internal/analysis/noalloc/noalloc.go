// Package noalloc machine-checks the zero-allocation contract of the
// hot kernels. The paper's vectorized speedups (4-7x over the reference
// scan) exist only because the monomorphic 1024-row kernels allocate
// nothing in steady state; until this analyzer, that property was
// guarded solely by runtime AllocsPerRun pins, which are skipped under
// -race and report a count, not a cause.
//
// A function marked `//olaplint:noalloc` on its doc comment must
// contain no allocating construct, and everything it statically calls
// must itself be allocation-free. The per-function verdict flows across
// package boundaries as an AllocFree object fact, so a kernel in
// internal/cube may call a helper in another analyzed package as long
// as that helper was proven clean by its own pass.
//
// Allocating constructs (each reported at its position, with the
// construct named — the "why" the runtime pins cannot give):
//
//   - make, new, and append (append may grow its backing array; the
//     analyzer does not attempt capacity reasoning)
//   - string concatenation and allocating conversions (string <->
//     []byte/[]rune, int -> string)
//   - map writes (inserts may grow buckets)
//   - interface conversions that box a non-pointer value: assignments,
//     call arguments, returns and panics whose target is an interface
//     and whose operand is a concrete non-pointer-shaped value
//   - map/slice composite literals and &composite expressions
//   - function literals that capture outer variables (the capture
//     forces the variable to the heap; capture-free literals cost
//     nothing to build and are flagged only when called, as dynamic
//     calls)
//   - go statements (a goroutine allocates its stack)
//   - fmt-family calls (boxing plus internal buffers)
//   - calls through function values or interface methods — invisible
//     to the static call graph, so unprovable and rejected
//
// The check is conservative by design: a flagged construct may, in a
// specific build, stay on the stack (escape analysis) or not grow
// (append under capacity), but the kernels' contract is "obviously
// allocation-free under any compiler", the same bar the BCE baseline
// sets for bounds checks.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"hybridolap/internal/analysis"
	"hybridolap/internal/analysis/callgraph"
)

// AllocFree is the object fact exported for every function proven
// allocation-free (no allocating constructs, and every statically
// resolved callee allocation-free too).
type AllocFree struct{}

// AFact marks AllocFree as a serializable fact.
func (*AllocFree) AFact() {}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "functions marked //olaplint:noalloc (the vectorized scan, " +
		"group-scan and cube-fold kernels) must contain no allocating " +
		"construct, transitively through every statically resolved call; " +
		"the proof flows cross-package as AllocFree object facts",
	Run:       run,
	FactTypes: []analysis.Fact{(*AllocFree)(nil)},
}

// marker is the directive that opts a function into the contract.
const marker = "olaplint:noalloc"

// site is one allocating construct inside a function body.
type site struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) (any, error) {
	g := callgraph.Build(pass)
	deps := callgraph.Deps(pass.Pkg)

	// Phase 1: direct allocating constructs per function.
	sites := make(map[string][]site, len(g.Funcs))
	for _, fn := range g.Funcs {
		sites[fn.ObjPath] = allocSites(pass, fn.Decl)
	}

	// Phase 2: greatest fixpoint of "allocation-free" over the static
	// call graph. Start optimistic (clean body => free) and demote
	// through call edges; recursion among clean kernels stays free.
	free := make(map[string]bool, len(g.Funcs))
	for _, fn := range g.Funcs {
		free[fn.ObjPath] = len(sites[fn.ObjPath]) == 0
	}
	calleeFree := func(c callgraph.Call) bool {
		if c.PkgPath == pass.Pkg.Path() {
			return free[c.ObjPath]
		}
		obj := callgraph.CalleeObject(deps, c)
		if obj == nil {
			return false
		}
		var fact AllocFree
		return pass.ImportObjectFact(obj, &fact)
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs {
			if !free[fn.ObjPath] {
				continue
			}
			for _, c := range fn.Sum.Calls {
				if isFmtCall(c) {
					continue // already a direct construct
				}
				if !calleeFree(c) {
					free[fn.ObjPath] = false
					changed = true
					break
				}
			}
		}
	}
	for _, fn := range g.Funcs {
		if free[fn.ObjPath] {
			pass.ExportObjectFact(fn.Obj, &AllocFree{})
		}
	}

	// Phase 3: report inside annotated functions — their own
	// constructs, and their calls to anything not proven free.
	for _, fn := range g.Funcs {
		if !callgraph.HasDirective(fn.Decl, marker) {
			continue
		}
		disp := callgraph.FuncDisplay(pass.Pkg.Path(), fn.ObjPath)
		for _, s := range sites[fn.ObjPath] {
			pass.Reportf(s.pos, "%s in //olaplint:noalloc function %s", s.msg, disp)
		}
		for _, c := range fn.Sum.Calls {
			if isFmtCall(c) || calleeFree(c) {
				continue
			}
			pass.Reportf(c.Pos, "//olaplint:noalloc function %s calls %s, which is not allocation-free",
				disp, callgraph.FuncDisplay(c.PkgPath, c.ObjPath))
		}
	}
	return nil, nil
}

// isFmtCall reports whether the call edge targets the fmt package; the
// construct scan already reported it, so the call-edge pass skips it to
// avoid a duplicate finding at the same position.
func isFmtCall(c callgraph.Call) bool { return c.PkgPath == "fmt" }

// allocSites scans one declaration body for directly allocating
// constructs. Function literal bodies are not descended into: a
// capturing literal is flagged as a construct itself, and calling any
// literal is a dynamic call, flagged at the call site.
func allocSites(pass *analysis.Pass, fd *ast.FuncDecl) []site {
	var out []site
	add := func(pos token.Pos, format string, args ...any) {
		out = append(out, site{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	info := pass.TypesInfo
	if fd.Body == nil {
		return out
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if captured := captures(info, n); len(captured) > 0 {
				add(n.Pos(), "closure captures %s by reference, forcing a heap allocation", captured[0])
			}
			return false

		case *ast.GoStmt:
			add(n.Pos(), "go statement allocates a goroutine")
			// Still inspect the arguments (they evaluate on this
			// goroutine), but the spawned call itself is covered.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, func(m ast.Node) bool { return inspectExpr(pass, m, add) })
			}
			return false

		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			case *types.Slice:
				add(n.Pos(), "slice literal allocates")
			}
			return true

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "address of composite literal allocates")
				}
			}
			return true

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) && !isConst(info, n) {
				add(n.Pos(), "string concatenation allocates")
			}
			return true

		case *ast.AssignStmt:
			checkAssign(pass, n, add)
			return true

		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
				add(n.Pos(), "map write may allocate")
			}
			return true

		case *ast.DeclStmt:
			checkDecl(pass, n, add)
			return true

		case *ast.ReturnStmt:
			checkReturn(pass, fd, n, add)
			return true

		case *ast.CallExpr:
			return inspectCall(pass, n, add)
		}
		return true
	})
	return out
}

// inspectExpr is the reduced walker used inside go-statement arguments:
// only expression-level constructs apply there.
func inspectExpr(pass *analysis.Pass, n ast.Node, add func(token.Pos, string, ...any)) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		return inspectCall(pass, n, add)
	case *ast.FuncLit:
		if captured := captures(pass.TypesInfo, n); len(captured) > 0 {
			add(n.Pos(), "closure captures %s by reference, forcing a heap allocation", captured[0])
		}
		return false
	}
	return true
}

// inspectCall classifies one call expression; the return value feeds
// ast.Inspect.
func inspectCall(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string, ...any)) bool {
	info := pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "call to make allocates")
			case "new":
				add(call.Pos(), "call to new allocates")
			case "append":
				add(call.Pos(), "append may grow and reallocate its backing array")
			case "panic":
				if len(call.Args) == 1 && boxes(info.TypeOf(call.Args[0]), anyInterface) {
					add(call.Pos(), "panic boxes its argument into an interface and allocates")
				}
			}
			return true
		}
	}

	// Conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkConversion(info, call, tv.Type, add)
		}
		return true
	}

	// Resolved calls: fmt family and interface dispatch flagged here;
	// everything else is a call-graph edge judged by the fixpoint.
	if fn := pass.PkgFunc(call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				// Interface dispatch produces no call-graph edge, so the
				// callee is invisible to the fixpoint: unprovable.
				add(call.Pos(), "dynamic dispatch through interface method %s cannot be proven allocation-free", fn.Name())
				return true
			}
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			add(call.Pos(), "fmt.%s allocates (interface boxing and internal buffers)", fn.Name())
			return true
		}
		checkCallBoxing(info, call, fn, add)
		return true
	}

	// Unresolvable: function values, method values, closures.
	add(call.Pos(), "call through a function value cannot be proven allocation-free")
	return true
}

// checkConversion flags allocating conversions: string <-> []byte,
// string <-> []rune, integer -> string, and interface boxing spelled as
// an explicit conversion.
func checkConversion(info *types.Info, call *ast.CallExpr, target types.Type, add func(token.Pos, string, ...any)) {
	argT := info.TypeOf(call.Args[0])
	if argT == nil {
		return
	}
	if isConst(info, call.Args[0]) && isString(target) && isString(argT) {
		return
	}
	switch {
	case isString(target) && (isByteSlice(argT) || isRuneSlice(argT)):
		add(call.Pos(), "conversion to string copies and allocates")
	case (isByteSlice(target) || isRuneSlice(target)) && isString(argT):
		add(call.Pos(), "conversion from string copies and allocates")
	case isString(target) && isInteger(argT) && !isConst(info, call.Args[0]):
		add(call.Pos(), "integer-to-string conversion allocates")
	case boxes(argT, target):
		add(call.Pos(), "interface conversion boxes a non-pointer value and allocates")
	}
}

// checkCallBoxing flags arguments that box into interface parameters.
func checkCallBoxing(info *types.Info, call *ast.CallExpr, fn *types.Func, add func(token.Pos, string, ...any)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing an existing slice through: no boxing
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				paramT = s.Elem()
			}
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if boxes(info.TypeOf(arg), paramT) {
			add(arg.Pos(), "argument boxes into an interface parameter and allocates")
		}
	}
}

// checkAssign flags map writes, string +=, and interface boxing in
// assignments.
func checkAssign(pass *analysis.Pass, n *ast.AssignStmt, add func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	for _, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
			add(lhs.Pos(), "map write may allocate")
		}
	}
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
		add(n.TokPos, "string concatenation allocates")
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Lhs {
			if boxes(info.TypeOf(n.Rhs[i]), info.TypeOf(n.Lhs[i])) {
				add(n.Rhs[i].Pos(), "assignment boxes a non-pointer value into an interface and allocates")
			}
		}
	}
}

// checkDecl flags interface boxing in var declarations with values.
func checkDecl(pass *analysis.Pass, n *ast.DeclStmt, add func(token.Pos, string, ...any)) {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			if boxes(pass.TypesInfo.TypeOf(vs.Values[i]), pass.TypesInfo.TypeOf(name)) {
				add(vs.Values[i].Pos(), "assignment boxes a non-pointer value into an interface and allocates")
			}
		}
	}
}

// checkReturn flags results that box into interface-typed return
// values.
func checkReturn(pass *analysis.Pass, fd *ast.FuncDecl, n *ast.ReturnStmt, add func(token.Pos, string, ...any)) {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(n.Results) {
		return
	}
	for i, res := range n.Results {
		if boxes(pass.TypesInfo.TypeOf(res), sig.Results().At(i).Type()) {
			add(res.Pos(), "return boxes a non-pointer value into an interface and allocates")
		}
	}
}

// captures lists the names of outer variables a function literal
// references (sorted by first occurrence).
func captures(info *types.Info, lit *ast.FuncLit) []string {
	inner := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if d, ok := info.Defs[id]; ok && d != nil {
				inner[d] = true
			}
		}
		return true
	})
	var out []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || inner[v] || seen[v] {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level: not a capture
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}

// anyInterface is the empty interface, the boxing target of panic and
// of ...any variadics resolved through a nil param type.
var anyInterface = types.NewInterfaceType(nil, nil)

// boxes reports whether storing a value of type t into a location of
// type target performs an allocating interface conversion: target is
// an interface, t is a concrete type, and t's representation is not a
// single pointer word (pointers, channels, maps, funcs and unsafe
// pointers box without allocating).
func boxes(t, target types.Type) bool {
	if t == nil || target == nil {
		return false
	}
	if !types.IsInterface(target) || types.IsInterface(t) {
		return false
	}
	if _, ok := target.(*types.TypeParam); ok {
		// Its underlying type is its constraint, an interface, but a value
		// of a type parameter is a value of the type argument: no box.
		return false
	}
	if b, ok := t.(*types.Basic); ok && (b.Kind() == types.UntypedNil || b.Kind() == types.Invalid) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Rune
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
