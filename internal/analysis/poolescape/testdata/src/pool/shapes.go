package pool

// secondPut has the defer and then Puts by hand as well: the buffer goes
// in twice and two later Gets share it.
func secondPut() {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	use(sc)
	scratchPool.Put(sc) // want `sync\.Pool value sc has a Put other than the defer after its Get`
}

// unbound hands the Get straight on: nothing names the buffer, so
// nothing can Put it.
func unbound() {
	use(scratchPool.Get().(*scratch)) // want `sync\.Pool Get must be bound to a local variable`
}

type holder struct{ sc *scratch }

// boundToField keeps the buffer in a struct that outlives the call.
func boundToField(h *holder) {
	h.sc = scratchPool.Get().(*scratch) // want `sync\.Pool Get must be bound to a local variable`
}

// boundInInit binds in an if-init, where no defer can follow.
func boundInInit() int {
	if sc := scratchPool.Get().(*scratch); sc != nil { // want `sync\.Pool Get must be bound to a local variable`
		return len(sc.buf)
	}
	return 0
}

// aggregate is the shape of cube.Aggregate and cube.GroupAggregate:
// validation may return before the Get, everything after it is covered.
func aggregate(n int) (int, error) {
	if n < 0 {
		return 0, errNegative
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if n == 0 {
		return 0, nil
	}
	return len(sc.buf) + n, nil
}

// rangeBatch is the shape of table.Plan.rangeBatch: one Get per call,
// reused by every batch of the loop.
func rangeBatch(lo, hi int) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for base := lo; base < hi; base++ {
		if base%2 == 0 {
			continue
		}
		use(sc)
	}
	return nil
}

// prime Puts a value that came from no Get: the rule is about pooled
// locals only.
func prime() {
	scratchPool.Put(new(scratch))
}
