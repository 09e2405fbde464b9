package cube

import (
	"runtime"
	"sync"

	"hybridolap/internal/table"
)

// Aggregate folds every cell of the box (in this cube's level coordinates)
// into a single Agg: the fold with no group key.
//
// The returned Agg answers sum, count, avg, min and max simultaneously.
func (c *Cube) Aggregate(box Box, workers int) (Agg, error) {
	f, err := c.fold(box, nil, workers)
	return f.agg, err
}

// fold is the one CPU driver behind Aggregate and AggregateGroups. The
// chunks intersecting the box are statically partitioned across workers —
// the parallel OpenMP loop of the paper, expressed as a goroutine
// fork/join — and the partials merge in worker order. workers <= 0 means
// GOMAXPROCS; 1 runs on the caller's goroutine. The answer depends on the
// box and the worker count only, never on scheduling.
func (c *Cube) fold(box Box, specs []GroupSpec, workers int) (cubeFold, error) {
	if err := box.validate(c.cards); err != nil {
		return cubeFold{}, err
	}
	sc := aggScratchPool.Get().(*aggScratch)
	defer aggScratchPool.Put(sc)
	items := c.intersectingChunks(box, sc)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		return c.foldItems(items, specs), nil
	}

	partials := make([]cubeFold, workers)
	var wg sync.WaitGroup
	stripe := (len(items) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * stripe
		hi := min(lo+stripe, len(items))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, chunks []workItem) {
			defer wg.Done()
			partials[w] = c.foldItems(chunks, specs)
		}(w, items[lo:hi])
	}
	wg.Wait()
	f := partials[0]
	for _, p := range partials[1:] {
		f.merge(p)
	}
	return f, nil
}

// cubeFold is one worker's accumulator. Without group specs it is a scalar
// fold: each chunk's cells fold into a chunk partial, which merges into
// agg. With specs, cells fold straight into groups under their packed key.
type cubeFold struct {
	c      *Cube
	specs  []GroupSpec
	agg    Agg
	groups map[table.GroupKey]Agg
}

// foldItems folds one worker's stripe of chunks into a fresh partial.
func (c *Cube) foldItems(items []workItem, specs []GroupSpec) cubeFold {
	f := cubeFold{c: c, specs: specs}
	if len(specs) > 0 {
		f.groups = make(map[table.GroupKey]Agg)
	}
	for i := range items {
		f.chunk(items[i])
	}
	return f
}

// merge folds a later worker's partial into f.
func (f *cubeFold) merge(p cubeFold) {
	f.agg = f.agg.Merge(p.agg)
	for k, v := range p.groups {
		f.groups[k] = f.groups[k].Merge(v)
	}
}

// chunk folds one chunk's overlap with the box. A scalar fold takes a
// whole chunk in one run kernel — the cells array of a compressed chunk
// stores filled cells only, and a dense chunk's occupancy says whether the
// per-cell Count != 0 test can drop out — and walks a partly covered one.
// A grouped fold walks every chunk.
func (f *cubeFold) chunk(it workItem) {
	ch := f.c.chunks[it.chunkIdx]
	if f.groups != nil {
		f.walk(it, ch)
		return
	}
	var part Agg
	switch {
	case !it.whole:
		part = f.walk(it, ch)
	case !ch.isDense():
		part.foldRunFull(ch.cells)
	case ch.filled == len(ch.dense):
		part.foldRunFull(ch.dense)
	default:
		part.foldRun(ch.dense)
	}
	f.agg = f.agg.Merge(part)
}

// workItem pairs a chunk index with the box↔chunk overlap in chunk-local
// coordinates, plus whether the chunk lies entirely inside the box.
type workItem struct {
	chunkIdx int
	local    Box
	whole    bool
}

// aggScratch holds the per-aggregation working set: the work-item list,
// one slab backing every item's local Box, and the odometer state. Every
// Aggregate/AggregateGroups call used to allocate a fresh Box per
// intersecting chunk; a paper-scale workload aggregates thousands of
// chunks per query at millions of queries, so the steady-state enumeration
// now draws everything from this pool and allocates nothing.
type aggScratch struct {
	items  []workItem
	locals []Range // slab: items[i].local = locals[i*n : (i+1)*n]
	span   Box     // the chunk-grid box the box intersects
	gc     []int
}

var aggScratchPool = sync.Pool{New: func() any { return new(aggScratch) }}

// grow returns s with length n, reusing capacity.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// intersectingChunks enumerates chunks overlapping the box into the
// scratch buffers and returns the item list (valid until the scratch is
// pooled again; callers must not retain it).
func (c *Cube) intersectingChunks(box Box, sc *aggScratch) []workItem {
	n := len(c.cards)
	if cap(sc.span) < n {
		sc.span = make(Box, n)
	}
	sc.gc = grow(sc.gc, n)
	span, gc := sc.span[:n], sc.gc
	// The grid sub-box is known up front, so the locals slab can be sized
	// exactly: no append ever reallocates it mid-enumeration (items alias
	// into it, so a reallocation would orphan earlier boxes).
	nChunks := 1
	for d, r := range box {
		span[d] = Range{From: r.From / uint32(c.side), To: r.To / uint32(c.side)}
		gc[d] = int(span[d].From)
		nChunks *= int(span[d].Width())
	}
	if cap(sc.locals) < nChunks*n {
		sc.locals = make([]Range, 0, nChunks*n)
	}
	sc.locals = sc.locals[:0]
	sc.items = sc.items[:0]
	for {
		idx := 0
		whole := true
		off := len(sc.locals)
		sc.locals = sc.locals[:off+n]
		local := Box(sc.locals[off : off+n : off+n])
		for d := 0; d < n; d++ {
			idx = idx*c.grid[d] + gc[d]
			chunkLo := gc[d] * c.side
			lo, hi := 0, c.side-1
			if int(box[d].From) > chunkLo {
				lo = int(box[d].From) - chunkLo
			}
			if int(box[d].To) < chunkLo+c.side-1 {
				hi = int(box[d].To) - chunkLo
			}
			// Chunks at the high edge of the grid may extend past the
			// cardinality; cells there are never filled, so scanning them is
			// harmless, but clamping keeps the "whole" test honest.
			if edge := c.cards[d] - chunkLo - 1; hi > edge {
				hi = edge
			}
			if lo != 0 || hi != c.side-1 {
				whole = false
			}
			local[d] = Range{From: uint32(lo), To: uint32(hi)}
		}
		if c.chunks[idx] != nil {
			sc.items = append(sc.items, workItem{chunkIdx: idx, local: local, whole: whole})
		} else {
			sc.locals = sc.locals[:off] // chunk empty: hand the slab space back
		}
		if !step(gc, span) {
			return sc.items
		}
	}
}

// walk visits the overlap of one chunk: a dense chunk one contiguous run
// along the last dimension at a time, a compressed chunk one stored offset
// at a time. A scalar fold's visits fold into the chunk partial it returns
// (dense runs of a fully occupied chunk skip the occupancy test), a grouped
// fold's into the group map.
func (f *cubeFold) walk(it workItem, ch *chunk) (part Agg) {
	c := f.c
	grouped := f.groups != nil
	n := len(c.cards)
	last := n - 1
	// origin is the chunk's first cell in cube coordinates (a grouped
	// fold's keys need it), at the visited run's first cell in chunk
	// coordinates. The fixed backing array keeps both on the stack for every
	// realistic dimensionality.
	var buf [16]int
	coords := buf[:]
	if 2*n > len(buf) {
		coords = make([]int, 2*n)
	}
	origin, at := coords[:n], coords[n:2*n]
	if grouped {
		ci := it.chunkIdx
		for d := len(origin) - 1; d >= 0; d-- {
			origin[d] = ci % c.grid[d] * c.side
			ci /= c.grid[d]
		}
	}
	if !ch.isDense() {
		for k, off := range ch.offsets {
			o := int(off)
			inside := true
			// Decode local coords last-dimension-first.
			for d := len(at) - 1; d >= 0; d-- {
				x := o % c.side
				o /= c.side
				if x < int(it.local[d].From) || x > int(it.local[d].To) {
					inside = false
					break
				}
				at[d] = x
			}
			switch {
			case !inside:
			case grouped:
				f.groupRun(origin, at, ch.cells[k:k+1])
			default:
				part.fold(ch.cells[k])
			}
		}
		return part
	}

	runLen := int(it.local[last].To-it.local[last].From) + 1
	for d := range at {
		at[d] = int(it.local[d].From)
	}
	outer := at[:last]
	// The fold of a run stays inline in each loop: a call anywhere in the
	// scalar loop would spill its running partial around every run.
	if grouped {
		for ok := true; ok; ok = step(outer, it.local) {
			base := c.runOffset(at)
			f.groupRun(origin, at, ch.dense[base:base+runLen])
		}
		return part
	}
	full := ch.filled == len(ch.dense)
	for ok := true; ok; ok = step(outer, it.local) {
		base := c.runOffset(at)
		if full {
			part.foldRunFull(ch.dense[base : base+runLen])
		} else {
			part.foldRun(ch.dense[base : base+runLen])
		}
	}
	return part
}

// runOffset returns the chunk offset of the cell at chunk coordinates at.
func (c *Cube) runOffset(at []int) int {
	off := 0
	for _, x := range at {
		off = off*c.side + x
	}
	return off
}

// step advances the odometer at through bounds, the last dimension
// fastest: at[d] ranges over bounds[d] for every d < len(at). It reports
// false, with at back at the first corner, once every position has been
// visited. The chunk enumeration steps the chunk grid with it, and the
// dense walk the outer dimensions of a chunk's overlap, one run apiece.
func step(at []int, bounds Box) bool {
	for d := len(at) - 1; d >= 0; d-- {
		at[d]++
		if at[d] <= int(bounds[d].To) {
			return true
		}
		at[d] = int(bounds[d].From)
	}
	return false
}

// groupRun folds one run of cells — consecutive along the last dimension,
// the first at chunk coordinates at — into the group map, keyed by
// table.PackKey order over the group coordinates in spec order.
func (f *cubeFold) groupRun(origin, at []int, run []Cell) {
	last := len(at) - 1
	for i := range run {
		if run[i].Count == 0 {
			continue
		}
		var k table.GroupKey
		for _, sp := range f.specs {
			x := origin[sp.Dim] + at[sp.Dim]
			if sp.Dim == last {
				x += i
			}
			k = k<<16 | table.GroupKey(uint32(x)/sp.Ratio&0xFFFF)
		}
		a := f.groups[k]
		a.fold(run[i])
		f.groups[k] = a
	}
}
