package cube

import (
	"fmt"
	"math/bits"
	"sync"

	"hybridolap/internal/table"
)

// Lattice is the fully materialised group-by lattice at one resolution
// level: every subset of dimensions, computed top-down with the
// smallest-parent strategy the paper's related work describes (Liang &
// Orlowska's "parallelization and expansion of the smallest parent
// method", Sec. II-B; Gray et al.'s CUBE operator [5]): the base group-by
// (all dimensions) is aggregated from the fact table once, and every
// coarser group-by aggregates from its smallest already-computed parent
// rather than rescanning the facts.
type Lattice struct {
	dims     int
	level    int
	groupbys map[uint8]map[uint64]Agg
	// scans counts cells read during construction, for comparing parent
	// choices (telemetry, tests).
	cellsAggregated int64
}

// BuildLattice materialises all 2^N group-bys. Nodes within one lattice
// tier (equal dimension count) are independent and compute in parallel
// when cfg.Workers > 1.
func BuildLattice(ft *table.FactTable, level, measure int, cfg Config) (*Lattice, error) {
	s := ft.Schema()
	nd := len(s.Dimensions)
	if nd > MaxIcebergDims {
		return nil, fmt.Errorf("cube: lattice supports at most %d dimensions, schema has %d",
			MaxIcebergDims, nd)
	}
	if measure < 0 || measure >= len(s.Measures) {
		return nil, fmt.Errorf("cube: measure %d out of range", measure)
	}
	lvl := make([]int, nd)
	for d, dim := range s.Dimensions {
		lvl[d] = level
		if lvl[d] > dim.Finest() {
			lvl[d] = dim.Finest()
		}
		if dim.Levels[lvl[d]].Cardinality > 0x10000 {
			return nil, fmt.Errorf("cube: lattice cardinality %d exceeds 65536 in %q",
				dim.Levels[lvl[d]].Cardinality, dim.Name)
		}
	}

	l := &Lattice{dims: nd, level: level, groupbys: make(map[uint8]map[uint64]Agg, 1<<nd)}

	// Base group-by: one pass over the fact table.
	full := uint8(1<<nd - 1)
	base := make(map[uint64]Agg)
	meas := ft.MeasureColumn(measure)
	cols := make([]table.Codes, nd)
	for d := range cols {
		cols[d] = ft.DimLevelColumn(d, lvl[d])
	}
	for r := 0; r < ft.Rows(); r++ {
		var key uint64
		for d := 0; d < nd; d++ {
			key = key<<16 | uint64(cols[d].At(r)&0xFFFF)
		}
		var c Cell
		c.add(meas[r])
		a := base[key]
		a.fold(c)
		base[key] = a
	}
	l.groupbys[full] = base
	l.cellsAggregated += int64(ft.Rows())

	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}

	// Tiers: popcount nd-1 down to 0. Each node picks its smallest parent
	// among computed supersets with exactly one extra dimension.
	for pc := nd - 1; pc >= 0; pc-- {
		var masks []uint8
		for m := uint8(0); m < 1<<nd; m++ {
			if bits.OnesCount8(m) == pc {
				masks = append(masks, m)
			}
		}
		results := make([]map[uint64]Agg, len(masks))
		counts := make([]int64, len(masks))
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i, m := range masks {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, m uint8) {
				defer wg.Done()
				defer func() { <-sem }()
				parent, drop := l.smallestParent(m, nd)
				results[i], counts[i] = rollupGroupBy(l.groupbys[parent], parent, drop, nd)
			}(i, m)
		}
		wg.Wait()
		for i, m := range masks {
			l.groupbys[m] = results[i]
			l.cellsAggregated += counts[i]
		}
	}
	return l, nil
}

// smallestParent returns the computed superset of mask with one extra
// dimension having the fewest cells, plus the dimension to drop.
func (l *Lattice) smallestParent(mask uint8, nd int) (parent uint8, drop int) {
	best := -1
	for d := 0; d < nd; d++ {
		if mask&(1<<d) != 0 {
			continue
		}
		p := mask | 1<<d
		if gb, ok := l.groupbys[p]; ok {
			if best < 0 || len(gb) < best {
				best = len(gb)
				parent = p
				drop = d
			}
		}
	}
	return parent, drop
}

// rollupGroupBy aggregates a parent group-by down by dropping dimension
// `drop` from its key. Returns the child map and the number of parent
// cells read.
func rollupGroupBy(parent map[uint64]Agg, parentMask uint8, drop, nd int) (map[uint64]Agg, int64) {
	child := make(map[uint64]Agg)
	// Key layout: coordinates of set dims, dimension order, 16 bits each,
	// lowest dim in highest bits. Compute the bit position of `drop` within
	// the parent key.
	// Count set dims after (higher than) drop in the parent mask: they sit
	// in lower bits.
	lower := 0
	for d := drop + 1; d < nd; d++ {
		if parentMask&(1<<d) != 0 {
			lower++
		}
	}
	shift := uint(16 * lower)
	for k, a := range parent {
		lo := k & ((1 << shift) - 1)
		hi := k >> (shift + 16)
		ck := hi<<shift | lo
		acc := child[ck]
		acc = acc.Merge(a)
		child[ck] = acc
	}
	return child, int64(len(parent))
}

// Get looks up one lattice cell: coords[d] is the coordinate of dimension
// d, or -1 when d is aggregated away.
func (l *Lattice) Get(coords []int32) (Agg, bool) {
	if len(coords) != l.dims {
		return Agg{}, false
	}
	var mask uint8
	var key uint64
	for d, c := range coords {
		if c < 0 {
			continue
		}
		mask |= 1 << d
		key = key<<16 | uint64(uint32(c)&0xFFFF)
	}
	gb, ok := l.groupbys[mask]
	if !ok {
		return Agg{}, false
	}
	a, ok := gb[key]
	return a, ok
}

// NumCells returns the total cells across all group-bys.
func (l *Lattice) NumCells() int {
	n := 0
	for _, gb := range l.groupbys {
		n += len(gb)
	}
	return n
}

// CellsAggregated reports construction work: cells (or fact rows for the
// base) read while building. Smallest-parent keeps this far below
// 2^N × rows, the naive cost the paper's [10] first algorithm pays.
func (l *Lattice) CellsAggregated() int64 { return l.cellsAggregated }

// Apex returns the grand total.
func (l *Lattice) Apex() Agg {
	gb := l.groupbys[0]
	return gb[0]
}
