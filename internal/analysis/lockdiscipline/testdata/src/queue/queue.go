// Package queue is a fixture for lock discipline: a critical section must
// end in the block that opened it — defer Unlock as the next statement, or
// the Unlock later in the same statement list with no exit between.
package queue

import "sync"

// Q guards a shared partition queue clock.
type Q struct {
	mu sync.Mutex
	tq float64
}

// DeferOK is the sanctioned pattern: allowed.
func (q *Q) DeferOK() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tq
}

// SameBlockOK unlocks later in the same statement list: allowed, branches
// included, as long as none of them leaves the region.
func (q *Q) SameBlockOK(bad bool) float64 {
	q.mu.Lock()
	if bad {
		q.tq = 0
	}
	v := q.tq
	q.mu.Unlock()
	return v
}

// FuncLitReturnOK returns inside a function literal between Lock and
// Unlock: the literal is its own body, so the region is intact. Allowed.
func (q *Q) FuncLitReturnOK(xs []float64) float64 {
	q.mu.Lock()
	pick := func(i int) float64 {
		if i >= len(xs) {
			return 0
		}
		return xs[i]
	}
	q.tq += pick(0)
	v := q.tq
	q.mu.Unlock()
	return v
}

// HelperOK ends an early-exit region through a helper with defer: allowed.
func (q *Q) HelperOK(bad bool) float64 {
	if v, ok := q.read(bad); ok {
		return v
	}
	return -1
}

func (q *Q) read(bad bool) (float64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if bad {
		return 0, false
	}
	return q.tq, true
}

// BranchUnlock releases on every path, but one path leaves the region
// early: rejected, even though no path leaks.
func (q *Q) BranchUnlock(bad bool) float64 {
	q.mu.Lock()
	if bad {
		q.mu.Unlock()
		return -1 // want `exit inside the q\.mu\.Lock region`
	}
	v := q.tq
	q.mu.Unlock()
	return v
}

// NestedUnlockOnly releases only inside a nested block: rejected.
func (q *Q) NestedUnlockOnly(bad bool) {
	q.mu.Lock() // want `q\.mu\.Lock not released in this block`
	if bad {
		q.mu.Unlock()
	} else {
		q.tq++
		q.mu.Unlock()
	}
}

// MissingUnlock never releases: reported at the Lock.
func (q *Q) MissingUnlock() {
	q.mu.Lock() // want `q\.mu\.Lock not released in this block`
	q.tq++
}

// DirectReturn returns while holding the lock: reported at the Lock.
func (q *Q) DirectReturn() float64 {
	q.mu.Lock() // want `q\.mu\.Lock not released in this block`
	return q.tq
}

// LateDefer defers the unlock one statement too late: rejected.
func (q *Q) LateDefer() float64 {
	q.mu.Lock() // want `q\.mu\.Lock not released in this block`
	q.tq++
	defer q.mu.Unlock()
	return q.tq
}

// DeferClosure releases inside a deferred closure: rejected, the rule
// reads no closure bodies.
func (q *Q) DeferClosure() float64 {
	q.mu.Lock() // want `q\.mu\.Lock not released in this block`
	defer func() { q.mu.Unlock() }()
	return q.tq
}

// LoopExits leaves the region by break, continue and panic: each
// rejected at the first exit.
func (q *Q) LoopExits(xs []float64) {
	for _, x := range xs {
		q.mu.Lock()
		if x < 0 {
			break // want `exit inside the q\.mu\.Lock region`
		}
		q.tq += x
		q.mu.Unlock()
	}
	for _, x := range xs {
		q.mu.Lock()
		if x == 0 {
			continue // want `exit inside the q\.mu\.Lock region`
		}
		q.tq += x
		q.mu.Unlock()
	}
	q.mu.Lock()
	if len(xs) == 0 {
		panic("empty") // want `exit inside the q\.mu\.Lock region`
	}
	q.mu.Unlock()
}

// InCase applies the rule to a case clause's statement list.
func (q *Q) InCase(k int) {
	switch k {
	case 0:
		q.mu.Lock()
		q.tq = 0
		q.mu.Unlock()
	default:
		q.mu.Lock() // want `q\.mu\.Lock not released in this block`
		q.tq = float64(k)
	}
}

// InFuncLit checks a function literal as its own body.
func (q *Q) InFuncLit() func() {
	return func() {
		q.mu.Lock() // want `q\.mu\.Lock not released in this block`
		q.tq++
	}
}

// RWDiscipline pairs RLock with RUnlock.
type RWDiscipline struct {
	mu sync.RWMutex
	n  int
}

// ReadOK uses the reader pair correctly: allowed.
func (r *RWDiscipline) ReadOK() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// ReadWrongPair releases the reader lock with Unlock: rejected.
func (r *RWDiscipline) ReadWrongPair() int {
	r.mu.RLock() // want `r\.mu\.RLock not released in this block`
	n := r.n
	r.mu.Unlock()
	return n
}

// WriteLeak takes the write lock and never releases it.
func (r *RWDiscipline) WriteLeak() {
	r.mu.Lock() // want `r\.mu\.Lock not released in this block`
	r.n++
}

// Embedded locks through its promoted methods; the receiver is the key.
type Embedded struct {
	sync.Mutex
	n int
}

// EmbeddedOK unlocks in the same block: allowed.
func (e *Embedded) EmbeddedOK() {
	e.Lock()
	e.n++
	e.Unlock()
}

// EmbeddedLeak never releases: rejected.
func (e *Embedded) EmbeddedLeak() {
	e.Lock() // want `e\.Lock not released in this block`
	e.n++
}
