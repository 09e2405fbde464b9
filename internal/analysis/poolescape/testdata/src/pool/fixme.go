package pool

// noDefer gets a buffer and Puts it by hand on the straight line: a
// return or a panic in between would leak it. The suggested fix inserts
// the defer right after the Get; the hand-written Put is then the second
// Put and stays flagged until it is deleted.
func noDefer() int {
	sc := scratchPool.Get().(*scratch) // want `sync\.Pool value sc must be followed at once by defer scratchPool\.Put\(sc\)`
	sc.buf = sc.buf[:0]
	n := len(sc.buf)
	scratchPool.Put(sc) // want `sync\.Pool value sc has a Put other than the defer after its Get`
	return n
}

// noDeferNested forgets the pool from inside a branch: the fix lands on
// the Get's own line, inside the then-block.
func noDeferNested(b bool) int {
	if b {
		sc := scratchPool.Get().(*scratch) // want `sync\.Pool value sc must be followed at once by defer scratchPool\.Put\(sc\)`
		return len(sc.buf)
	}
	return 0
}

// deferNotNext defers the Put one statement too late: a panic in use
// would unwind past it.
func deferNotNext() {
	sc := scratchPool.Get().(*scratch) // want `sync\.Pool value sc must be followed at once by defer scratchPool\.Put\(sc\)`
	use(sc)
	defer scratchPool.Put(sc) // want `sync\.Pool value sc has a Put other than the defer after its Get`
}

// wrongLocal defers a Put, but of the other buffer: b is never returned.
// The fix inserts b's defer; the stray one is a's second Put.
func wrongLocal() {
	a := scratchPool.Get().(*scratch)
	defer scratchPool.Put(a)
	b := scratchPool.Get().(*scratch) // want `sync\.Pool value b must be followed at once by defer scratchPool\.Put\(b\)`
	defer scratchPool.Put(a)          // want `sync\.Pool value a has a Put other than the defer after its Get`
	use(b)
}

// wrongPool returns the buffer to a pool it did not come from. The fix
// inserts the right defer; the wrong one stays flagged.
func wrongPool() {
	sc := scratchPool.Get().(*scratch) // want `sync\.Pool value sc must be followed at once by defer scratchPool\.Put\(sc\)`
	defer otherPool.Put(sc)            // want `sync\.Pool value sc has a Put other than the defer after its Get`
	use(sc)
}
