package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryComplete pins the suite: all twelve analyzers must be
// registered, in stable order, with docs for -list output.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"simclock", "seededrand", "lockdiscipline", "floateq", "errdrop",
		"unitsafety",
		"lockorder", "epochpin", "faultpoint", "errcmp",
		"noalloc", "poolescape",
	}
	got := registry()
	if len(got) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no run function", a.Name)
		}
	}
}

// TestSelectAnalyzers exercises the -only filter.
func TestSelectAnalyzers(t *testing.T) {
	sel, err := selectAnalyzers("floateq, simclock", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "floateq" || sel[1].Name != "simclock" {
		t.Fatalf("selectAnalyzers picked %v", sel)
	}
	if _, err := selectAnalyzers("nosuch", ""); err == nil {
		t.Fatal("selectAnalyzers accepted unknown name")
	}
}

// TestSelectSkip exercises the -skip filter, alone and combined with
// -only.
func TestSelectSkip(t *testing.T) {
	sel, err := selectAnalyzers("", "noalloc, poolescape")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(registry())-2 {
		t.Fatalf("skip removed %d analyzers, want 2", len(registry())-len(sel))
	}
	for _, a := range sel {
		if a.Name == "noalloc" || a.Name == "poolescape" {
			t.Errorf("skipped analyzer %s still selected", a.Name)
		}
	}

	sel, err = selectAnalyzers("floateq,simclock", "simclock")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0].Name != "floateq" {
		t.Fatalf("only+skip picked %v", sel)
	}

	if _, err := selectAnalyzers("", "nosuch"); err == nil {
		t.Fatal("skip accepted unknown name")
	}
	if _, err := selectAnalyzers("floateq", "floateq"); err == nil {
		t.Fatal("an empty selection must error, not silently lint nothing")
	}
}

// badModule writes a module with one violation per analyzer and returns
// its directory.
func badModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module bad\n\ngo 1.22\n")
	writeFile(t, dir, "internal/sim/sim.go", `package sim

import "time"

func Tick() time.Duration {
	t0 := time.Now()
	return time.Since(t0)
}
`)
	writeFile(t, dir, "internal/sched/sched.go", `package sched

import (
	"math/rand"
	"sync"
)

type Q struct {
	mu sync.Mutex
	tq float64
}

func (q *Q) Update(x float64) bool {
	q.mu.Lock()
	q.tq += x
	exact := q.tq == x
	return exact
}

func Jitter() float64 { return rand.Float64() }
`)
	writeFile(t, dir, "internal/units/units.go", `package units

type Stats struct {
	TotalSeconds float64
	WaitMS       float64
}

func Mix(s *Stats) {
	s.WaitMS = s.TotalSeconds
}
`)
	writeFile(t, dir, "internal/kern/kern.go", `package kern

import "sync"

var pool = sync.Pool{New: func() interface{} { return new([]byte) }}

//olaplint:noalloc
func Grow(dst []int64, n int) []int64 {
	return append(dst, make([]int64, n)...)
}

func Leak() int {
	buf := pool.Get().(*[]byte)
	return len(*buf)
}
`)
	return dir
}

// TestKnownBadFixture runs the full driver pipeline over a freshly
// written module containing one violation per analyzer and requires a
// non-zero finding count mentioning each.
func TestKnownBadFixture(t *testing.T) {
	dir := badModule(t)
	var out strings.Builder
	n, err := lint(&out, nil, dir, []string{"./..."}, registry(), modeReport, false)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if n == 0 {
		t.Fatalf("lint found no issues in known-bad fixture; output:\n%s", out.String())
	}
	for _, name := range []string{
		"simclock", "seededrand", "lockdiscipline", "floateq",
		"unitsafety", "noalloc", "poolescape",
	} {
		if !strings.Contains(out.String(), "("+name+")") {
			t.Errorf("expected a %s finding, output:\n%s", name, out.String())
		}
	}
}

// TestJSONOutput checks the NDJSON contract the CI problem matcher
// depends on: one valid object per line with the pinned field order.
func TestJSONOutput(t *testing.T) {
	dir := badModule(t)
	var out strings.Builder
	n, err := lint(&out, nil, dir, []string{"./..."}, registry(), modeReport, true)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != n {
		t.Fatalf("got %d JSON lines for %d findings:\n%s", len(lines), n, out.String())
	}
	for _, line := range lines {
		var d jsonDiag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %q", line)
		}
		// The problem matcher's regex keys off this exact field order.
		for _, key := range []string{`"file":`, `"line":`, `"col":`, `"analyzer":`, `"fixes":`, `"message":`} {
			if !strings.Contains(line, key) {
				t.Errorf("JSON line missing %s: %q", key, line)
			}
		}
		if strings.Index(line, `"file":`) > strings.Index(line, `"line":`) {
			t.Errorf("field order changed, problem matcher will break: %q", line)
		}
	}
}

// TestJSONExitOnFixableFindings is the regression gate for the exit
// contract: a -json run whose findings all carry suggested fixes must
// still report a non-zero count — CI consumes the JSON stream and must
// not pass while fixes are pending.
func TestJSONExitOnFixableFindings(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module bad\n\ngo 1.22\n")
	// Every finding in this module is fix-eligible (unitsafety's
	// seconds->milliseconds conversion).
	writeFile(t, dir, "units/units.go", `package units

type Stats struct {
	TotalSeconds float64
	WaitMS       float64
}

func Mix(s *Stats) {
	s.WaitMS = s.TotalSeconds
}
`)
	var out strings.Builder
	n, err := lint(&out, nil, dir, []string{"./..."}, registry(), modeReport, true)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if n == 0 {
		t.Fatalf("fix-eligible findings did not count toward the exit status:\n%s", out.String())
	}
	sawFixable := false
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var d jsonDiag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if d.Fixes > 0 {
			sawFixable = true
		}
	}
	if !sawFixable {
		t.Fatalf("fixture produced no fix-eligible findings; the regression gate is vacuous:\n%s", out.String())
	}
}

// TestTimingOutput checks the -timing channel: a non-nil writer gets
// the load line, one line per analyzer carrying its finding count, and
// a total line summing them — and none of it leaks into the
// diagnostics stream.
func TestTimingOutput(t *testing.T) {
	dir := badModule(t)
	var out, timing strings.Builder
	n, err := lint(&out, &timing, dir, []string{"./..."}, registry(), modeReport, false)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if !strings.Contains(timing.String(), "olaplint: load ") {
		t.Errorf("timing output missing load line:\n%s", timing.String())
	}
	for _, a := range registry() {
		if !strings.Contains(timing.String(), a.Name) {
			t.Errorf("timing output missing analyzer %s:\n%s", a.Name, timing.String())
		}
	}
	var totalLine string
	for _, line := range strings.Split(timing.String(), "\n") {
		if strings.HasPrefix(line, "olaplint: total") {
			totalLine = line
		} else if strings.Contains(line, "simclock") && !strings.Contains(line, "finding(s)") {
			t.Errorf("per-analyzer timing line missing finding count: %q", line)
		}
	}
	if totalLine == "" {
		t.Errorf("timing output missing total line:\n%s", timing.String())
	} else if !strings.Contains(totalLine, fmt.Sprintf("%d finding(s)", n)) {
		t.Errorf("total line does not carry the finding count %d: %q", n, totalLine)
	}
	if strings.Contains(out.String(), "olaplint: load ") {
		t.Errorf("timing lines leaked into the diagnostics stream:\n%s", out.String())
	}
}

// TestFixRoundTrip is the -fix acceptance gate: applying fixes to a module
// with fixable findings must converge — the second run reports zero
// fixable findings and no pending edits under -diff.
func TestFixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module bad\n\ngo 1.22\n")
	writeFile(t, dir, "units/units.go", `package units

type Stats struct {
	TotalSeconds float64
	WaitMS       float64
}

func Mix(s *Stats) {
	s.WaitMS = s.TotalSeconds
}
`)

	var out strings.Builder
	if _, err := lint(&out, nil, dir, []string{"./..."}, registry(), modeFix, false); err != nil {
		t.Fatalf("lint -fix: %v", err)
	}
	if !strings.Contains(out.String(), "fixed") {
		t.Fatalf("-fix applied nothing:\n%s", out.String())
	}

	fixedUnits, err := os.ReadFile(filepath.Join(dir, "units/units.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixedUnits), "s.TotalSeconds * 1000") {
		t.Errorf("unit conversion not inserted:\n%s", fixedUnits)
	}

	// Second run: clean, and -diff proposes nothing.
	out.Reset()
	n, err := lint(&out, nil, dir, []string{"./..."}, registry(), modeReport, false)
	if err != nil {
		t.Fatalf("second lint: %v", err)
	}
	if n != 0 {
		t.Errorf("findings remain after -fix:\n%s", out.String())
	}
	out.Reset()
	n, err = lint(&out, nil, dir, []string{"./..."}, registry(), modeDiff, false)
	if err != nil {
		t.Fatalf("lint -diff: %v", err)
	}
	if n != 0 || out.String() != "" {
		t.Errorf("-diff still proposes %d edits after -fix:\n%s", n, out.String())
	}
}

// TestDiffDryRun checks that -diff prints a unified diff and leaves the
// tree untouched.
func TestDiffDryRun(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module bad\n\ngo 1.22\n")
	src := `package units

type Stats struct {
	TotalSeconds float64
	WaitMS       float64
}

func Mix(s *Stats) {
	s.WaitMS = s.TotalSeconds
}
`
	writeFile(t, dir, "units/units.go", src)
	var out strings.Builder
	n, err := lint(&out, nil, dir, []string{"./..."}, registry(), modeDiff, false)
	if err != nil {
		t.Fatalf("lint -diff: %v", err)
	}
	if n == 0 {
		t.Fatalf("-diff proposed no edits:\n%s", out.String())
	}
	for _, want := range []string{"--- a/", "+++ b/", "+\ts.WaitMS = s.TotalSeconds * 1000"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output missing %q:\n%s", want, out.String())
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, "units/units.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != src {
		t.Errorf("-diff modified the source tree")
	}
}

// TestRepoIsClean is the acceptance gate: the repository itself must lint
// clean, with no finding suppressed.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module; skipped in -short")
	}
	var out strings.Builder
	n, err := lint(&out, nil, "../..", []string{"./..."}, registry(), modeReport, false)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if n != 0 {
		t.Errorf("repository has %d unfixed findings:\n%s", n, out.String())
	}
}

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
