package bcecheck

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// repoRoot is where the gate runs in production (`make bce-check`).
const repoRoot = "../../.."

// TestRepoBaselineClean is the gate itself: the kernel packages'
// bounds-check profile must match the committed baseline exactly. On
// failure, either eliminate the new checks in the kernel or run
// `make bce-baseline` and justify the regression in the PR.
func TestRepoBaselineClean(t *testing.T) {
	diff, err := Check(repoRoot, nil, BaselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Errorf("bounds-check sites drifted from %s:\n%s", BaselinePath, diff)
	}
}

// writeKernelModule lays out a one-package module the compiler can
// build offline.
func writeKernelModule(t *testing.T, dir, kernelSrc string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module bcefix\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "kernel"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "kernel", "kernel.go"), []byte(kernelSrc), 0o644); err != nil {
		t.Fatal(err)
	}
}

// cleanKernel is fully bounds-proven: the i < len(xs) loop condition
// eliminates every check.
const cleanKernel = `package kernel

func sum(xs []int64) int64 {
	var acc int64
	for i := 0; i < len(xs); i++ {
		acc += xs[i]
	}
	return acc
}
`

// dirtyKernel adds a function whose index the compiler cannot prove —
// the synthetic regression a kernel edit could introduce.
const dirtyKernel = cleanKernel + `
func pick(xs []int64, sel []int32) int64 {
	var acc int64
	for _, i := range sel {
		acc += xs[i]
	}
	return acc
}
`

// TestDetectsNewBoundsCheck demonstrates the failure mode the gate
// exists for: a baseline captured from a clean kernel, then an edit
// that introduces an unprovable bounds check, must produce a non-empty
// diff naming the new site — and the clean tree must still pass.
func TestDetectsNewBoundsCheck(t *testing.T) {
	dir := t.TempDir()
	writeKernelModule(t, dir, cleanKernel)
	baseline := "baseline.txt"
	patterns := []string{"./kernel"}

	if err := Update(dir, patterns, baseline); err != nil {
		t.Fatal(err)
	}
	diff, err := Check(dir, patterns, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("clean kernel diffs against its own baseline:\n%s", diff)
	}

	// The regression: xs[i] with i from a selection vector cannot be
	// proven in bounds.
	if err := os.WriteFile(filepath.Join(dir, "kernel", "kernel.go"), []byte(dirtyKernel), 0o644); err != nil {
		t.Fatal(err)
	}
	diff, err = Check(dir, patterns, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if diff == "" {
		t.Fatal("new bounds check not detected against the baseline")
	}
	if !strings.Contains(diff, "+kernel/kernel.go:pick IsInBounds") {
		t.Errorf("diff does not name the new site:\n%s", diff)
	}
}

// TestNormalization pins the site key: per-function, not per-line, so
// comment and whitespace churn cannot dirty the baseline.
func TestNormalization(t *testing.T) {
	dir := t.TempDir()
	writeKernelModule(t, dir, dirtyKernel)
	lines, err := Run(dir, []string{"./kernel"})
	if err != nil {
		t.Fatal(err)
	}
	want := "kernel/kernel.go:pick IsInBounds x1"
	found := false
	for _, l := range lines {
		if l == want {
			found = true
		}
		if strings.ContainsAny(l, "0123456789") && strings.Contains(l, ":") && strings.Count(l, ":") > 1 {
			t.Errorf("line-numbered site leaked into the baseline: %q", l)
		}
	}
	if !found {
		t.Errorf("normalized site %q missing from %v", want, lines)
	}

	// A pure comment shuffle must not move the profile.
	shuffled := strings.Replace(dirtyKernel, "package kernel\n", "package kernel\n\n// comment pushing every line down\n// by a few more\n\n", 1)
	writeKernelModule(t, dir, shuffled)
	again, err := Run(dir, []string{"./kernel"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(lines, "\n") != strings.Join(again, "\n") {
		t.Errorf("comment-only edit changed the baseline:\nbefore: %v\nafter: %v", lines, again)
	}
}

// TestGenericStencilsCountOnce pins what a site is: a bounds check in
// generic code is one site whether the package instantiates it for one type
// or for three. (The compiler repeats the diagnostic of a generic kernel
// inlined into a generic caller once per stencil of the caller.)
func TestGenericStencilsCountOnce(t *testing.T) {
	const generic = `package kernel

func pick[T uint8 | uint16 | uint32](xs []T, sel []int32) uint64 {
	var acc uint64
	for _, i := range sel {
		acc += uint64(xs[i])
	}
	return acc
}

func twice[T uint8 | uint16 | uint32](xs []T, sel []int32) uint64 { return 2 * pick(xs, sel) }

func Twice8(xs []uint8, sel []int32) uint64 { return twice(xs, sel) }
`
	const more = `
func Twice16(xs []uint16, sel []int32) uint64 { return twice(xs, sel) }
func Twice32(xs []uint32, sel []int32) uint64 { return twice(xs, sel) }
`
	sitesIn := func(src, fn string) []string {
		t.Helper()
		dir := t.TempDir()
		writeKernelModule(t, dir, src)
		lines, err := Run(dir, []string{"./kernel"})
		if err != nil {
			t.Fatal(err)
		}
		return slices.DeleteFunc(lines, func(l string) bool { return !strings.HasPrefix(l, "kernel/kernel.go:"+fn+" ") })
	}
	for _, fn := range []string{"pick", "twice"} {
		one, three := sitesIn(generic, fn), sitesIn(generic+more, fn)
		if len(one) == 0 || !slices.Equal(one, three) {
			t.Errorf("%s: %v with one instantiation, %v with three", fn, one, three)
		}
	}
}

// TestMethodKeys pins the method naming: Type.method, pointer receivers
// without the star.
func TestMethodKeys(t *testing.T) {
	fdSrc := `package kernel

type ring struct{ xs []int64 }

func (r *ring) at(sel []int32) int64 {
	var acc int64
	for _, i := range sel {
		acc += r.xs[i]
	}
	return acc
}
`
	dir := t.TempDir()
	writeKernelModule(t, dir, fdSrc)
	lines, err := Run(dir, []string{"./kernel"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "kernel/kernel.go:ring.at IsInBounds") {
			found = true
		}
	}
	if !found {
		t.Errorf("method site not keyed Type.method: %v", lines)
	}
}
