// Package faultpoint verifies that every operation the chaos layer is
// supposed to cover actually threads an internal/fault injection point:
// WAL appends and syncs, dictionary translation, compaction, and GPU
// partition executes. The chaos and soak suites only prove recovery for
// the failures they can inject — an I/O path added without a fault
// point silently escapes them, and this analyzer is what turns that
// omission into a lint finding instead of a production surprise.
//
// A function "crosses" a fault point when it calls
// (*fault.Plan).Check(fault.X, ...) with a named Point constant,
// directly or through any statically resolved call; the transitive
// closure flows across package boundaries as Crossed object facts. Two
// rules consume it:
//
//  1. Guarded primitives — (*ingest.Log).Append / .Sync and
//     query.Translate — may only be called by functions whose closure
//     crosses the matching point (WALAppend, WALSync, DictLookup).
//     Reported at the call site. The check is flow-insensitive: it
//     proves the path is instrumented, not that the check precedes the
//     operation.
//  2. Must-cross entry points — the gpusim Partition entry point,
//     Execute, and (*ingest.Store).CompactOnce — must themselves cross
//     their point (GPUExec, Compaction). Reported at the declaration.
//
// Deliberately uninstrumented paths (offline reference executors, fault
// -free experiment builders) carry an `olaplint:faultexempt` directive
// with a justification on the function's doc comment.
package faultpoint

import (
	"path"
	"sort"

	"hybridolap/internal/analysis"
	"hybridolap/internal/analysis/callgraph"
)

// Crossed is the object fact exported for every function that crosses
// fault points, directly or transitively: the sorted Point constant
// names.
type Crossed struct {
	Points []string
}

// AFact marks Crossed as a serializable fact.
func (*Crossed) AFact() {}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "faultpoint",
	Doc: "every WAL write/sync, dictionary lookup, compaction and GPU " +
		"execute must thread an internal/fault injection point; flags " +
		"call paths that bypass the chaos layer (olaplint:faultexempt " +
		"waives with justification)",
	Run:       run,
	FactTypes: []analysis.Fact{(*Crossed)(nil)},
}

// marker waives faultpoint findings for one function.
const marker = "olaplint:faultexempt"

// key addresses a function by its package's base name and object path —
// stable across the production tree and the golden fixtures.
type key struct {
	pkgBase string
	objPath string
}

// guarded maps each guarded primitive to the Point its callers must
// cross.
var guarded = map[key]string{
	{"ingest", "m.Log.Append"}: "WALAppend",
	{"ingest", "m.Log.Sync"}:   "WALSync",
	{"query", "o.Translate"}:   "DictLookup",
}

// mustCross maps each entry point to the Point it must itself cross.
var mustCross = map[key]string{
	{"gpusim", "m.Partition.Execute"}: "GPUExec",
	{"ingest", "m.Store.CompactOnce"}: "Compaction",
}

func run(pass *analysis.Pass) (any, error) {
	g := callgraph.Build(pass)
	deps := callgraph.Deps(pass.Pkg)

	// Transitive crossing sets: direct Checks, closed over same-package
	// calls; cross-package callees contribute their Crossed facts.
	crossed := make(map[string]map[string]bool, len(g.Funcs))
	for _, fn := range g.Funcs {
		set := make(map[string]bool)
		for _, c := range fn.Sum.Checks {
			set[c.Point] = true
		}
		crossed[fn.ObjPath] = set
	}
	external := make(map[string][]string)
	calleePoints := func(c callgraph.Call) []string {
		if c.PkgPath == pass.Pkg.Path() {
			return sortedKeys(crossed[c.ObjPath])
		}
		ekey := c.PkgPath + ":" + c.ObjPath
		if pts, ok := external[ekey]; ok {
			return pts
		}
		var pts []string
		if obj := callgraph.CalleeObject(deps, c); obj != nil {
			var fact Crossed
			if pass.ImportObjectFact(obj, &fact) {
				pts = fact.Points
			}
		}
		external[ekey] = pts
		return pts
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs {
			set := crossed[fn.ObjPath]
			for _, c := range fn.Sum.Calls {
				for _, pt := range calleePoints(c) {
					if !set[pt] {
						set[pt] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fn := range g.Funcs {
		if len(crossed[fn.ObjPath]) > 0 {
			pass.ExportObjectFact(fn.Obj, &Crossed{Points: sortedKeys(crossed[fn.ObjPath])})
		}
	}

	for _, fn := range g.Funcs {
		if callgraph.HasDirective(fn.Decl, marker) {
			continue
		}
		disp := callgraph.FuncDisplay(pass.Pkg.Path(), fn.ObjPath)
		set := crossed[fn.ObjPath]
		if pt, ok := mustCross[key{path.Base(pass.Pkg.Path()), fn.ObjPath}]; ok && !set[pt] {
			pass.Reportf(fn.Decl.Pos(), "%s must cross the fault.%s injection point but never does: the chaos suite cannot reach this path",
				disp, pt)
		}
		for _, c := range fn.Sum.Calls {
			pt, ok := guarded[key{path.Base(c.PkgPath), c.ObjPath}]
			if !ok || set[pt] {
				continue
			}
			pass.Reportf(c.Pos, "%s calls %s without crossing the fault.%s injection point: the chaos suite cannot reach this path",
				disp, callgraph.FuncDisplay(c.PkgPath, c.ObjPath), pt)
		}
	}
	return nil, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
