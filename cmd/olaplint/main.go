// Command olaplint is the multichecker driver for the repository's custom
// static-analysis suite. It loads the packages matched by its arguments
// (default ./...), runs every registered analyzer and prints one line per
// finding:
//
//	path/file.go:line:col: message (analyzer)
//
// Exit status: 0 when clean, 1 when any analyzer reported a finding (or,
// under -diff, when fixes would edit files), 2 on usage or load errors.
// `make lint` and CI both run it over ./... — a non-zero exit blocks the
// merge, and findings are fixed, never suppressed.
//
// Flags:
//
//	-list        print the registered analyzers and their docs, then exit
//	-only names  comma-separated analyzer names to run (default: all)
//	-skip names  comma-separated analyzer names to exclude from the run
//	-fix         apply each diagnostic's first suggested fix in place
//	-diff        print the suggested fixes as a unified diff, apply nothing
//	-json        emit diagnostics as NDJSON (one object per line) for
//	             machine consumers such as the CI problem matcher
//	-timing      print the load time, per-analyzer wall time and finding
//	             count, and a total line to stderr after the run
//	-bce         compile the kernel packages with -d=ssa/check_bce and
//	             diff the bounds-check sites against the committed
//	             baseline (internal/analysis/bcecheck/baseline.txt)
//	-bce-update  regenerate that baseline from the current compile
//
// The exit status counts every finding, fix-eligible or not: a -json
// run whose findings all carry suggested fixes still exits 1, so CI
// cannot pass on pending fixes.
//
// Packages are loaded once per invocation — one `go list -export` plus
// one type-check — and every selected analyzer runs over that shared
// load; -timing makes the split visible.
//
// Fix application is deterministic: diagnostics are processed in position
// order, duplicate edits collapse, and conflicting overlaps are an error.
// Fixes ride on diagnostics, so a clean run implies an empty -diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"time"

	"hybridolap/internal/analysis"
	"hybridolap/internal/analysis/bcecheck"
	"hybridolap/internal/analysis/epochpin"
	"hybridolap/internal/analysis/errcmp"
	"hybridolap/internal/analysis/errdrop"
	"hybridolap/internal/analysis/faultpoint"
	"hybridolap/internal/analysis/floateq"
	"hybridolap/internal/analysis/lockdiscipline"
	"hybridolap/internal/analysis/lockorder"
	"hybridolap/internal/analysis/noalloc"
	"hybridolap/internal/analysis/poolescape"
	"hybridolap/internal/analysis/seededrand"
	"hybridolap/internal/analysis/simclock"
	"hybridolap/internal/analysis/unitsafety"
)

// registry returns every analyzer in the suite, in stable order.
func registry() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simclock.Analyzer,
		seededrand.Analyzer,
		lockdiscipline.Analyzer,
		floateq.Analyzer,
		errdrop.Analyzer,
		unitsafety.Analyzer,
		lockorder.Analyzer,
		epochpin.Analyzer,
		faultpoint.Analyzer,
		errcmp.Analyzer,
		noalloc.Analyzer,
		poolescape.Analyzer,
	}
}

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	onlyNames := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	skipNames := flag.String("skip", "", "comma-separated analyzer names to exclude")
	fix := flag.Bool("fix", false, "apply suggested fixes in place")
	diff := flag.Bool("diff", false, "print suggested fixes as a unified diff without applying")
	asJSON := flag.Bool("json", false, "emit diagnostics as NDJSON")
	timing := flag.Bool("timing", false, "print load and per-analyzer wall times to stderr")
	bce := flag.Bool("bce", false, "compile the kernel packages with -d=ssa/check_bce and diff the bounds-check sites against the committed baseline")
	bceUpdate := flag.Bool("bce-update", false, "regenerate the bounds-check baseline from the current compile")
	flag.Parse()

	if *bce || *bceUpdate {
		os.Exit(runBCE(*bceUpdate, flag.Args()))
	}
	if *list {
		for _, a := range registry() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *fix && *diff {
		fmt.Fprintln(os.Stderr, "olaplint: -fix and -diff are mutually exclusive")
		os.Exit(2)
	}

	analyzers, err := selectAnalyzers(*onlyNames, *skipNames)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olaplint:", err)
		os.Exit(2)
	}

	mode := modeReport
	switch {
	case *fix:
		mode = modeFix
	case *diff:
		mode = modeDiff
	}
	var timingW io.Writer
	if *timing {
		timingW = os.Stderr
	}
	n, err := lint(os.Stdout, timingW, ".", flag.Args(), analyzers, mode, *asJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olaplint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "olaplint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// runBCE drives the compiler-assisted bounds-check gate: -bce diffs the
// kernel packages' bounds-check sites against the committed baseline
// (exit 1 on drift), -bce-update rewrites the baseline. Extra arguments
// override the default kernel package patterns.
func runBCE(update bool, patterns []string) int {
	if update {
		if err := bcecheck.Update(".", patterns, bcecheck.BaselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "olaplint:", err)
			return 2
		}
		fmt.Printf("olaplint: wrote %s\n", bcecheck.BaselinePath)
		return 0
	}
	diff, err := bcecheck.Check(".", patterns, bcecheck.BaselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olaplint:", err)
		return 2
	}
	if diff != "" {
		fmt.Print(diff)
		fmt.Fprintln(os.Stderr, "olaplint: bounds-check sites drifted from the baseline; fix the kernel or rerun with -bce-update and justify the new checks in the PR")
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only and -skip lists against the
// registry. An empty only-list selects everything; skip subtracts from
// whatever only selected. Unknown names error in either list, and
// so does a selection that skips itself empty — a lint run that checks
// nothing should never look like a clean one.
func selectAnalyzers(only, skip string) ([]*analysis.Analyzer, error) {
	all := registry()
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	resolve := func(names string) ([]*analysis.Analyzer, error) {
		var out []*analysis.Analyzer
		for _, name := range strings.Split(names, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
			}
			out = append(out, a)
		}
		return out, nil
	}

	selected := all
	if only != "" {
		var err error
		if selected, err = resolve(only); err != nil {
			return nil, err
		}
	}
	if skip != "" {
		skipped, err := resolve(skip)
		if err != nil {
			return nil, err
		}
		drop := make(map[*analysis.Analyzer]bool, len(skipped))
		for _, a := range skipped {
			drop[a] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range selected {
			if !drop[a] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("selection is empty: every analyzer was skipped")
	}
	return selected, nil
}

// lintMode selects what lint does with diagnostics that carry fixes.
type lintMode int

const (
	modeReport lintMode = iota // print findings
	modeFix                    // write fixed files, report remaining findings
	modeDiff                   // print would-be fixes as a diff; count = edits
)

// jsonDiag is the NDJSON shape of one finding. Field order is part of the
// contract: the CI problem matcher's regex keys off it.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Fixes    int    `json:"fixes"`
	Message  string `json:"message"`
}

// lint loads patterns relative to dir — once: every analyzer shares the
// single `go list -export` + type-check — runs the analyzers and returns
// the count that should drive the exit status: findings in report modes
// (every finding counts, whether or not it carries a suggested fix), or
// pending edits in -diff mode.
// A non-nil timingW receives the load time, per-analyzer wall times and
// finding counts, and a total line.
func lint(w, timingW io.Writer, dir string, patterns []string, analyzers []*analysis.Analyzer, mode lintMode, asJSON bool) (int, error) {
	start := time.Now()
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return 0, err
	}
	if len(pkgs) == 0 {
		return 0, fmt.Errorf("no packages matched %v", patterns)
	}
	loadTime := time.Since(start)
	diags, timings := analysis.AnalyzeTimed(pkgs, analyzers)
	if timingW != nil {
		counts := make(map[string]int, len(timings))
		for _, d := range diags {
			counts[d.Analyzer]++
		}
		fmt.Fprintf(timingW, "olaplint: load %s (%d packages)\n", loadTime.Round(time.Millisecond), len(pkgs))
		var total time.Duration
		for _, t := range timings {
			total += t.Elapsed
			fmt.Fprintf(timingW, "olaplint: %-16s %-12s %d finding(s)\n",
				t.Name, t.Elapsed.Round(time.Microsecond), counts[t.Name])
		}
		fmt.Fprintf(timingW, "olaplint: %-16s %-12s %d finding(s)\n",
			"total", total.Round(time.Microsecond), len(diags))
	}
	fset := pkgs[0].Fset
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})

	switch mode {
	case modeFix:
		fixed, n, err := analysis.ApplyFixes(fset, diags)
		if err != nil {
			return 0, err
		}
		files := sortedKeys(fixed)
		for _, file := range files {
			if err := os.WriteFile(file, fixed[file], 0o644); err != nil {
				return 0, err
			}
			fmt.Fprintf(w, "olaplint: fixed %s\n", file)
		}
		if n > 0 {
			// Fixes change the source the diagnostics were computed from;
			// report only what had no fix, and let the caller rerun for an
			// authoritative verdict.
			diags = withoutFixes(diags)
		}
		printDiags(w, fset, diags, asJSON)
		return len(diags), nil

	case modeDiff:
		fixed, n, err := analysis.ApplyFixes(fset, diags)
		if err != nil {
			return 0, err
		}
		for _, file := range sortedKeys(fixed) {
			old, err := os.ReadFile(file)
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, analysis.UnifiedDiff(displayPath(dir, file), old, fixed[file]))
		}
		return n, nil
	}

	printDiags(w, fset, diags, asJSON)
	return len(diags), nil
}

// withoutFixes filters diags down to those -fix could not repair.
func withoutFixes(diags []analysis.Diagnostic) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		if len(d.SuggestedFixes) == 0 {
			out = append(out, d)
		}
	}
	return out
}

// printDiags renders findings either human-readable or as NDJSON.
func printDiags(w io.Writer, fset *token.FileSet, diags []analysis.Diagnostic, asJSON bool) {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if asJSON {
			// Encode never fails for this shape; diagnostics are plain
			// strings and ints.
			_ = enc.Encode(jsonDiag{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Fixes:    len(d.SuggestedFixes),
				Message:  d.Message,
			})
			continue
		}
		fmt.Fprintf(w, "%s: %s (%s)\n", pos, d.Message, d.Analyzer)
	}
}

// displayPath renders file relative to the lint root when possible, so
// diff headers read a/internal/… rather than a//abs/path.
func displayPath(dir, file string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return file
	}
	rel, err := filepath.Rel(abs, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return rel
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
