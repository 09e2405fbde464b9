// Package bcecheck is the compiler-assisted half of the kernel
// performance gate: it compiles the kernel packages with the gc
// backend's bounds-check-elimination debug output (-d=ssa/check_bce),
// normalizes the reported sites, and diffs them against a committed
// baseline. The pure-AST analyzers (noalloc, poolescape) prove
// allocation discipline; this gate pins the other half of the paper's
// kernel contract — the hot loops compile to branch-free bounds-proven
// code, and an innocent-looking kernel edit that re-introduces a
// per-row bounds check fails CI instead of quietly costing 20% of scan
// throughput.
//
// Why `go tool compile` instead of `go build -gcflags`: the build cache
// swallows compiler diagnostics on every cache hit — a second `go build
// -gcflags=-d=ssa/check_bce` run prints nothing and would diff as "all
// bounds checks fixed". Invoking the compiler directly, with an
// importcfg assembled from `go list -export -deps`, re-runs the backend
// every time while still reusing the cached export data of every
// dependency.
//
// Sites are normalized to the enclosing top-level function, not the
// line: `internal/table/vecscan.go:seedRange IsInBounds x2`. Line
// numbers churn with every comment edit; per-function counts change
// only when the function's bounds-check profile actually changes. The
// cost of the coarser key is deliberate: moving a bounds check between
// two lines of one function is invisible, adding one to a function is
// not.
//
// A site is a source position: each diagnostic counts once however often
// the compiler repeats it. It repeats one per stencil of a generic kernel
// (the scan kernels are compiled once per code width), and the count must
// say how many checks the source has, not how many widths there are.
package bcecheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"hybridolap/internal/analysis"
)

// BaselinePath is the committed baseline, relative to the repository
// root (the directory `make bce-check` runs from).
const BaselinePath = "internal/analysis/bcecheck/baseline.txt"

// DefaultPatterns are the kernel packages the gate compiles: the
// vectorized scan/group-scan kernels and the cube fold kernels.
var DefaultPatterns = []string{"./internal/table", "./internal/cube"}

// listedPkg mirrors the subset of `go list -json` output the gate
// needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// diagRe matches one compiler diagnostic:
//
//	vecscan.go:51:9: Found IsInBounds
var diagRe = regexp.MustCompile(`^(.+?):(\d+):\d+: Found (IsInBounds|IsSliceInBounds)$`)

// Run compiles every package matched by patterns (DefaultPatterns when
// empty) under -d=ssa/check_bce and returns the normalized baseline
// lines, sorted: one `pkgrel/file.go:func Kind xN` line per function
// and bounds-check kind.
func Run(dir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = DefaultPatterns
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	var importcfg bytes.Buffer
	for _, lp := range listed {
		if lp.Export != "" {
			fmt.Fprintf(&importcfg, "packagefile %s=%s\n", lp.ImportPath, lp.Export)
		}
	}
	tmp, err := os.MkdirTemp("", "bcecheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfgPath := filepath.Join(tmp, "importcfg")
	if err := os.WriteFile(cfgPath, importcfg.Bytes(), 0o644); err != nil {
		return nil, err
	}

	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, lp := range listed {
		if lp.DepOnly {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("loading %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if err := compilePkg(lp, cfgPath, tmp, absDir, counts); err != nil {
			return nil, err
		}
	}

	lines := make([]string, 0, len(counts))
	for site, n := range counts {
		lines = append(lines, fmt.Sprintf("%s x%d", site, n))
	}
	sort.Strings(lines)
	return lines, nil
}

// compilePkg runs the compiler over one package and folds its bounds-
// check diagnostics into counts, keyed "relfile:func Kind".
func compilePkg(lp listedPkg, cfgPath, tmp, absDir string, counts map[string]int) error {
	if len(lp.GoFiles) == 0 {
		return nil
	}
	args := []string{
		"tool", "compile",
		"-p", lp.ImportPath,
		"-importcfg", cfgPath,
		"-d=ssa/check_bce",
		"-o", filepath.Join(tmp, "bce.o"),
	}
	args = append(args, lp.GoFiles...)
	cmd := exec.Command("go", args...)
	// Basenames resolve against the package directory; the compiler
	// prints its -d=ssa debug diagnostics to stdout and hard errors to
	// stderr, so both are captured into one stream.
	cmd.Dir = lp.Dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("compile %s: %v\n%s", lp.ImportPath, err, out.String())
	}

	relPkg, err := filepath.Rel(absDir, lp.Dir)
	if err != nil {
		relPkg = lp.Dir
	}
	funcs, err := funcRanges(lp.Dir, lp.GoFiles)
	if err != nil {
		return err
	}
	seen := map[string]bool{} // diagnostics already counted: file:line:col and kind
	for _, line := range strings.Split(out.String(), "\n") {
		m := diagRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || seen[m[0]] {
			continue
		}
		seen[m[0]] = true
		file, lineno, kind := m[1], atoi(m[2]), m[3]
		fn := funcs.enclosing(filepath.Base(file), lineno)
		key := fmt.Sprintf("%s:%s %s", filepath.ToSlash(filepath.Join(relPkg, filepath.Base(file))), fn, kind)
		counts[key]++
	}
	return nil
}

// funcTable maps file basenames to their top-level function line
// ranges.
type funcTable map[string][]funcRange

type funcRange struct {
	name     string
	from, to int
}

// enclosing names the function containing the line, or "<toplevel>"
// when the line is outside every declaration (package-level init
// expressions).
func (t funcTable) enclosing(file string, line int) string {
	for _, fr := range t[file] {
		if line >= fr.from && line <= fr.to {
			return fr.name
		}
	}
	return "<toplevel>"
}

// funcRanges parses the package files (syntax only — the compiler just
// accepted them) and records each declaration's line span. Methods are
// keyed Type.name so two types' same-named methods stay distinct.
func funcRanges(pkgDir string, goFiles []string) (funcTable, error) {
	fset := token.NewFileSet()
	t := funcTable{}
	for _, gf := range goFiles {
		path := filepath.Join(pkgDir, gf)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			t[gf] = append(t[gf], funcRange{
				name: declName(fd),
				from: fset.Position(fd.Pos()).Line,
				to:   fset.Position(fd.End()).Line,
			})
		}
	}
	return t, nil
}

// declName renders "seedRange" for functions and "Type.add" for
// methods (pointer receivers included, without the star — the baseline
// key only needs to be unambiguous and stable).
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return "recv"
}

// Diff renders the unified diff between the committed baseline lines
// and the current run, empty when they match. The baseline is the "old"
// side, so new bounds checks show as additions.
func Diff(baselinePath string, baseline []byte, current []string) string {
	cur := strings.Join(current, "\n")
	if len(current) > 0 {
		cur += "\n"
	}
	return analysis.UnifiedDiff(baselinePath, baseline, []byte(cur))
}

// Check runs the gate against the baseline file: a nil error with an
// empty diff means the kernels' bounds-check profile is unchanged.
func Check(dir string, patterns []string, baselinePath string) (string, error) {
	current, err := Run(dir, patterns)
	if err != nil {
		return "", err
	}
	baseline, err := os.ReadFile(filepath.Join(dir, baselinePath))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	return Diff(baselinePath, baseline, current), nil
}

// Update regenerates the baseline file from the current compile.
func Update(dir string, patterns []string, baselinePath string) error {
	current, err := Run(dir, patterns)
	if err != nil {
		return err
	}
	out := strings.Join(current, "\n")
	if len(current) > 0 {
		out += "\n"
	}
	return os.WriteFile(filepath.Join(dir, baselinePath), []byte(out), 0o644)
}

func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPkg
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}
