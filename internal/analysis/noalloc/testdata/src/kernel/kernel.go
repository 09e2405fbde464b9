// Package kernel exercises every allocating-construct class the noalloc
// analyzer must catch, plus the clean kernels that must stay silent and
// export AllocFree facts for the app package to import.
package kernel

import "fmt"

// SumSel is the shape of the production selection kernels: index loops,
// slice reads, scalar accumulation. Clean, and proven so.
//
//olaplint:noalloc
func SumSel(vals []int64, sel []int32) int64 {
	var acc int64
	for _, i := range sel {
		acc += vals[i]
	}
	return acc
}

// FoldRun folds a run through a clean same-package helper; the helper is
// unannotated but proven allocation-free, so the edge is fine.
//
//olaplint:noalloc
func FoldRun(vals []int64, lo, hi int) int64 {
	var acc int64
	for i := lo; i < hi; i++ {
		acc = accumulate(acc, vals[i])
	}
	return acc
}

// accumulate is clean and unannotated: no findings here, but an
// AllocFree fact is still exported for it.
func accumulate(acc, v int64) int64 {
	if v < 0 {
		return acc
	}
	return acc + v
}

// grow is unannotated and allocates; calling it from a marked kernel is
// the violation, not the body itself.
func grow(xs []int64, v int64) []int64 {
	return append(xs, v) // unannotated: not reported here
}

// Builtins hits make, new and append.
//
//olaplint:noalloc
func Builtins(xs []int64) []int64 {
	buf := make([]int64, len(xs)) // want `call to make allocates in //olaplint:noalloc function kernel\.Builtins`
	p := new(int64)               // want `call to new allocates in //olaplint:noalloc function kernel\.Builtins`
	copy(buf, xs)
	buf = append(buf, *p) // want `append may grow and reallocate its backing array in //olaplint:noalloc function kernel\.Builtins`
	return buf
}

// Strings hits concatenation, +=, and the allocating conversions.
//
//olaplint:noalloc
func Strings(name string, code int) string {
	s := name + "!"             // want `string concatenation allocates in //olaplint:noalloc function kernel\.Strings`
	s += name                   // want `string concatenation allocates in //olaplint:noalloc function kernel\.Strings`
	b := []byte(name)           // want `conversion from string copies and allocates in //olaplint:noalloc function kernel\.Strings`
	t := string(b)              // want `conversion to string copies and allocates in //olaplint:noalloc function kernel\.Strings`
	u := string(rune(code + 1)) // want `integer-to-string conversion allocates in //olaplint:noalloc function kernel\.Strings`
	_ = u
	return s + t // want `string concatenation allocates in //olaplint:noalloc function kernel\.Strings`
}

// MapWrite hits map inserts through assignment and IncDec.
//
//olaplint:noalloc
func MapWrite(counts map[string]int, key string) {
	counts[key] = 1 // want `map write may allocate in //olaplint:noalloc function kernel\.MapWrite`
	counts[key]++   // want `map write may allocate in //olaplint:noalloc function kernel\.MapWrite`
}

// Boxing hits interface conversions at assignment, declaration, call
// argument and return; the pointer is exempt (pointer-shaped, no box).
//
//olaplint:noalloc
func Boxing(v int64, p *int64) any {
	var x any = v // want `assignment boxes a non-pointer value into an interface and allocates in //olaplint:noalloc function kernel\.Boxing`
	_ = x
	x = p // pointer-shaped: free
	sink(p)
	sink(v) // want `argument boxes into an interface parameter and allocates in //olaplint:noalloc function kernel\.Boxing`
	if v < 0 {
		return p // pointer-shaped: free
	}
	return v // want `return boxes a non-pointer value into an interface and allocates in //olaplint:noalloc function kernel\.Boxing`
}

// sink consumes an interface; clean itself (no body constructs).
func sink(any) {}

// Narrow converts to a type parameter: its constraint is an interface, its
// values are not, so nothing boxes — the shape of a kernel stencilled per
// column width.
//
//olaplint:noalloc
func Narrow[T uint8 | uint16 | uint32](col []T, from, to uint32) int {
	n := 0
	lo, span := T(from), T(to-from)
	for _, v := range col {
		if v-lo <= span {
			n++
		}
	}
	return n
}

// Literals hits composite literals and &composite.
//
//olaplint:noalloc
func Literals(n int) int {
	m := map[int]int{}      // want `map literal allocates in //olaplint:noalloc function kernel\.Literals`
	s := []int{1, 2, 3}     // want `slice literal allocates in //olaplint:noalloc function kernel\.Literals`
	c := &counter{limit: n} // want `address of composite literal allocates in //olaplint:noalloc function kernel\.Literals`
	_ = m
	return s[0] + c.limit
}

type counter struct{ limit int }

// Closure hits capturing literals and go statements.
//
//olaplint:noalloc
func Closure(total *int64) {
	go bump(total) // want `go statement allocates a goroutine in //olaplint:noalloc function kernel\.Closure`
	f := func() {  // want `closure captures total by reference, forcing a heap allocation in //olaplint:noalloc function kernel\.Closure`
		*total++
	}
	_ = f
}

func bump(p *int64) { *p++ }

// Dynamic hits unresolvable and interface-dispatched calls.
//
//olaplint:noalloc
func Dynamic(f func() int64, s fmt.Stringer) int64 {
	v := f()       // want `call through a function value cannot be proven allocation-free in //olaplint:noalloc function kernel\.Dynamic`
	_ = s.String() // want `dynamic dispatch through interface method String cannot be proven allocation-free in //olaplint:noalloc function kernel\.Dynamic`
	return v
}

// Fmt hits the fmt family directly.
//
//olaplint:noalloc
func Fmt(v int64) {
	fmt.Println(v) // want `fmt\.Println allocates \(interface boxing and internal buffers\) in //olaplint:noalloc function kernel\.Fmt`
}

// CallsDirty is itself construct-free, but its callee allocates: the
// taint propagates along the same-package call edge.
//
//olaplint:noalloc
func CallsDirty(xs []int64, v int64) int {
	ys := grow(xs, v) // want `//olaplint:noalloc function kernel\.CallsDirty calls kernel\.grow, which is not allocation-free`
	return len(ys)
}

// Recurse checks the greatest-fixpoint start: mutually clean recursion
// stays allocation-free instead of demoting itself.
//
//olaplint:noalloc
func Recurse(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return n + Recurse(n-1)
}

// Scratch is the pooled-buffer shape the real kernels use: a method on a
// concrete receiver, clean, exported for the app package.
type Scratch struct {
	Sel []int32
}

// Reset truncates without reallocating.
//
//olaplint:noalloc
func (s *Scratch) Reset() {
	s.Sel = s.Sel[:0]
}
