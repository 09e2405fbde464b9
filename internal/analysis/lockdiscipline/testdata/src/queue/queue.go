// Package queue is a fixture for lock discipline: missing unlocks and
// returns inside critical sections must be reported; the defer and
// explicit-unlock-on-every-path patterns must not.
package queue

import "sync"

// Q guards a shared partition queue clock.
type Q struct {
	mu sync.Mutex
	tq float64
}

// MissingUnlock never releases: reported at the Lock.
func (q *Q) MissingUnlock() {
	q.mu.Lock() // want `q\.mu locked but never Unlocked`
	q.tq++
}

// LeakOnReturn releases on the fall-through path only: the branch that
// returns early leaks the lock.
func (q *Q) LeakOnReturn(bad bool) float64 {
	q.mu.Lock()
	if bad { // want `branch may return without releasing q\.mu\.Lock`
		return -1
	}
	v := q.tq
	q.mu.Unlock()
	return v
}

// DirectReturnLeak returns while holding the lock: reported at the
// return.
func (q *Q) DirectReturnLeak() float64 {
	q.mu.Lock() // want `q\.mu locked but never Unlocked`
	return q.tq // want `return leaks q\.mu\.Lock`
}

// DeferOK is the sanctioned pattern: allowed.
func (q *Q) DeferOK() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tq
}

// BranchUnlockOK releases on every path explicitly: allowed.
func (q *Q) BranchUnlockOK(bad bool) float64 {
	q.mu.Lock()
	if bad {
		q.mu.Unlock()
		return -1
	}
	v := q.tq
	q.mu.Unlock()
	return v
}

// DeferClosureOK releases inside a deferred closure: allowed.
func (q *Q) DeferClosureOK() float64 {
	q.mu.Lock()
	defer func() { q.mu.Unlock() }()
	return q.tq
}

// RWDiscipline pairs RLock with RUnlock; the write path leaks.
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

// WriteLeak takes the write lock and never releases it.
func (r *RWDiscipline) WriteLeak() {
	r.mu.Lock() // want `r\.mu locked but never Unlocked`
	r.n++
}

// ByPointer is the correct calling convention: allowed.
func ByPointer(q *Q) float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tq
}
