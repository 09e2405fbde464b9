// Package analysis is a self-contained miniature of golang.org/x/tools'
// go/analysis framework: an Analyzer is a named check with a Run function
// that inspects one type-checked package (a Pass) and reports Diagnostics.
//
// The repository deliberately has no module dependencies beyond the
// standard library, so rather than importing x/tools this package mirrors
// the shape of its API on top of go/ast and go/types. Analyzers written
// here port to the real framework (and vice versa) with only an import
// change.
//
// The suite exists because the paper's results are only reproducible if
// the simulator is deterministic: scheduler traces, partition-queue clocks
// (T_Q) and the two-piece performance model all assume virtual time and
// seeded randomness. See the sibling packages simclock, seededrand,
// lockdiscipline, floateq and errdrop for the individual checks, and
// cmd/olaplint for the multichecker driver.
package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is a short lower-case identifier used in diagnostics and for
	// -only/-skip filtering in the driver.
	Name string
	// Doc is a one-paragraph description shown by `olaplint -list`.
	Doc string
	// Run applies the check to a single package and reports findings via
	// pass.Report. The returned value is unused (kept for parity with
	// x/tools go/analysis signatures).
	Run func(pass *Pass) (any, error)
	// FactTypes lists prototype values of every Fact this analyzer
	// exports or imports. Facts of unlisted types are rejected at export
	// time, mirroring x/tools: the list is the analyzer's serialization
	// contract across package boundaries.
	FactTypes []Fact
	// Finish, when non-nil, runs once per Analyze call after every
	// per-package pass of this analyzer. It sees the whole analyzed
	// program (every loaded package plus the facts the passes exported)
	// and may report diagnostics — the hook exists for whole-program
	// properties that no single package can decide, such as cycles in a
	// global lock-acquisition graph whose edges were observed in sibling
	// packages that never import each other.
	Finish func(pass *FinishPass) error
}

// Fact is a datum one pass attaches to an object or package for passes of
// the same analyzer on *dependent* packages to read. Implementations must
// be pointers to gob-serializable structs: facts cross the package
// boundary the same way compiler export data does, by value, not by
// sharing Go pointers (the importing pass sees a different *types.Package
// for the exporting package, reconstructed from `go list -export` data).
type Fact interface{ AFact() }

// Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver supplies it.
	Report func(Diagnostic)

	// facts is the run-wide serialized fact store, shared by every pass
	// of one Analyze call. Nil when the pass runs outside Analyze (then
	// export/import are no-ops that find nothing).
	facts *factStore
}

// FinishPass presents the whole analyzed program to an Analyzer's Finish
// hook. Packages appear in dependency order (the order their passes ran);
// every token.Pos recorded during the passes — including positions
// embedded in facts — resolves against Fset, because one Analyze call
// parses all packages into a single shared FileSet.
type FinishPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	// Report delivers one diagnostic. The driver supplies it.
	Report func(Diagnostic)

	facts *factStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *FinishPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// PackageFact pairs one package-level fact with the package that
// exported it.
type PackageFact struct {
	Path string // package import path
	Fact Fact
}

// AllPackageFacts decodes every package-level fact of proto's type that
// this analyzer's passes exported, sorted by package path so iteration
// is deterministic. proto is only a type witness; each returned entry
// holds a freshly decoded value.
func (p *FinishPass) AllPackageFacts(proto Fact) []PackageFact {
	if !p.Analyzer.allowsFact(proto) {
		panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", p.Analyzer.Name, proto))
	}
	if p.facts == nil {
		return nil
	}
	raw := p.facts.packageFacts(p.Analyzer.Name, factType(proto))
	paths := make([]string, 0, len(raw))
	for path := range raw {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]PackageFact, 0, len(paths))
	for _, path := range paths {
		fact := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(Fact)
		if gob.NewDecoder(bytes.NewReader(raw[path])).Decode(fact) == nil {
			out = append(out, PackageFact{Path: path, Fact: fact})
		}
	}
	return out
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// SuggestedFixes are machine-applicable repairs, best first. The
	// driver's -fix mode applies the first fix of each diagnostic.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained repair for a diagnostic: a set of
// textual edits that, applied together, resolve the finding.
type SuggestedFix struct {
	// Message describes the repair ("convert seconds to milliseconds").
	Message string
	// TextEdits are non-overlapping replacements of [Pos, End) by NewText.
	TextEdits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText. Pos == End
// inserts without deleting.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// ReportWithFix reports a diagnostic carrying one suggested fix.
func (p *Pass) ReportWithFix(pos token.Pos, message string, fix SuggestedFix) {
	p.Report(Diagnostic{Pos: pos, Message: message, Analyzer: p.Analyzer.Name, SuggestedFixes: []SuggestedFix{fix}})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// All analyzers in the suite exempt test files: tests may legitimately
// use wall-clock timing, throwaway randomness and discarded errors.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// PkgFunc resolves the callee of call to its declared *types.Func, looking
// through method values and selector expressions. Returns nil for calls to
// builtins, function-typed variables and conversions.
func (p *Pass) PkgFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := p.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Preorder walks every file of the pass in depth-first order, calling fn
// for each node. It is the moral equivalent of the inspect.Analyzer
// dependency in x/tools-based suites.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
