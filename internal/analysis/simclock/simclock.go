// Package simclock forbids wall-clock time in the simulation core.
//
// The scheduler evaluation (paper Sec. IV, Fig. 10) replays query streams
// on a virtual timeline: partition-queue clocks T_Q advance by modelled
// service times, never by elapsed host time. A single time.Now() in
// internal/sim, internal/sched or internal/gpusim silently couples a
// simulation run to host load, making traces unreproducible and T_Q
// estimates unfalsifiable. Those packages must route all timing through
// the injected sim.Clock; measurement packages (internal/membench,
// internal/engine's real path, whose attempt loop times every step it
// feeds back) legitimately read the wall clock and are out of scope.
package simclock

import (
	"go/ast"
	"go/types"
	"strings"

	"hybridolap/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc: "forbid time.Now/time.Sleep/time.Since in simulation packages " +
		"(internal/sim, internal/sched, internal/gpusim), which must use " +
		"the injected virtual clock so runs are replayable",
	Run: run,
}

// scopes lists package-path suffixes the ban applies to.
var scopes = []string{"internal/sim", "internal/sched", "internal/gpusim"}

// banned are the time package functions that read or advance host time.
var banned = map[string]bool{"Now": true, "Sleep": true, "Since": true, "Until": true, "Tick": true, "After": true}

func inScope(path string) bool {
	for _, s := range scopes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.Preorder(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !banned[sel.Sel.Name] || pass.IsTestFile(sel.Pos()) {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok || pkgName.Imported().Path() != "time" {
			return true
		}
		pass.Reportf(sel.Pos(),
			"time.%s in simulation package %s: use the injected sim.Clock so runs are replayable",
			sel.Sel.Name, pass.Pkg.Path())
		return true
	})
	return nil, nil
}
