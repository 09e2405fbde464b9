package cube

import (
	"fmt"
	"sort"

	"hybridolap/internal/table"
)

// Iceberg is a bottom-up-computed iceberg cube (Beyer & Ramakrishnan [1],
// the BUC algorithm the paper's Sec. II-A describes): every group-by of
// the full 2^N lattice, restricted to cells supported by at least MinSup
// fact rows. Where the dense array cube materialises one group-by per
// resolution, BUC materialises the whole lattice but prunes unsupported
// cells — the classic trade-off for sparse, high-dimensional data.
type Iceberg struct {
	dims   int
	level  int
	minSup int
	cells  map[icebergKey]Agg
}

// icebergKey identifies one lattice cell: mask has bit d set when
// dimension d is grouped (not aggregated away), and key packs the grouped
// coordinates, 16 bits each, in dimension order.
type icebergKey struct {
	mask uint8
	key  uint64
}

// MaxIcebergDims bounds the lattice so keys pack into a uint64.
const MaxIcebergDims = 4

// BuildIceberg runs BUC over the fact table at the given resolution level:
// recursive partitioning dimension by dimension, descending only into
// partitions with at least minSup rows ("the bottom up algorithm
// aggregates and sorts based on a single dimension [and] recursively
// partitions the current results", Sec. II-A).
func BuildIceberg(ft *table.FactTable, level, measure, minSup int) (*Iceberg, error) {
	s := ft.Schema()
	if len(s.Dimensions) > MaxIcebergDims {
		return nil, fmt.Errorf("cube: BUC supports at most %d dimensions, schema has %d",
			MaxIcebergDims, len(s.Dimensions))
	}
	if measure < 0 || measure >= len(s.Measures) {
		return nil, fmt.Errorf("cube: measure %d out of range", measure)
	}
	if minSup < 1 {
		return nil, fmt.Errorf("cube: minSup must be >= 1, got %d", minSup)
	}
	nd := len(s.Dimensions)
	// Per-dimension level (clamped) and cardinality check for packing.
	lvl := make([]int, nd)
	for d, dim := range s.Dimensions {
		lvl[d] = level
		if lvl[d] > dim.Finest() {
			lvl[d] = dim.Finest()
		}
		if dim.Levels[lvl[d]].Cardinality > 0x10000 {
			return nil, fmt.Errorf("cube: BUC cardinality %d exceeds 65536 in %q",
				dim.Levels[lvl[d]].Cardinality, dim.Name)
		}
	}

	// Materialise the projected input once.
	rows := ft.Rows()
	coords := make([][]uint32, nd)
	for d := 0; d < nd; d++ {
		coords[d] = ft.DimLevelColumn(d, lvl[d]).AppendTo(make([]uint32, 0, rows))
	}
	meas := ft.MeasureColumn(measure)

	ic := &Iceberg{dims: nd, level: level, minSup: minSup, cells: make(map[icebergKey]Agg)}

	idx := make([]int32, rows)
	for i := range idx {
		idx[i] = int32(i)
	}

	// prefix state for the recursion.
	var mask uint8
	var key uint64
	shift := make([]uint, nd) // key bit position of each dim when grouped

	var buc func(part []int32, startDim int)
	buc = func(part []int32, startDim int) {
		// Emit the aggregate of the current prefix cell.
		var agg Agg
		for _, r := range part {
			var c Cell
			c.add(meas[r])
			agg.fold(c)
		}
		ic.cells[icebergKey{mask: mask, key: key}] = agg

		for d := startDim; d < nd; d++ {
			col := coords[d]
			// Partition part by coordinate in dimension d.
			sort.Slice(part, func(i, j int) bool { return col[part[i]] < col[part[j]] })
			lo := 0
			for lo < len(part) {
				hi := lo
				v := col[part[lo]]
				for hi < len(part) && col[part[hi]] == v {
					hi++
				}
				if hi-lo >= minSup {
					// Descend with dimension d grouped at coordinate v.
					shift[d] = 0
					oldMask, oldKey := mask, key
					mask |= 1 << d
					// Re-pack key: coordinates of grouped dims in dim order.
					key = repack(mask, oldMask, oldKey, d, v)
					buc(part[lo:hi], d+1)
					mask, key = oldMask, oldKey
				}
				lo = hi
			}
		}
	}
	buc(idx, 0)
	return ic, nil
}

// repack inserts coordinate v for newly grouped dimension d into the
// packed key, keeping grouped coordinates in dimension order (16 bits
// each, lowest dimension in the highest bits).
func repack(newMask, oldMask uint8, oldKey uint64, d int, v uint32) uint64 {
	// Decode oldKey according to oldMask.
	var oldCoords [MaxIcebergDims]uint32
	k := oldKey
	for dd := MaxIcebergDims - 1; dd >= 0; dd-- {
		if oldMask&(1<<dd) != 0 {
			oldCoords[dd] = uint32(k & 0xFFFF)
			k >>= 16
		}
	}
	oldCoords[d] = v
	// Re-encode according to newMask.
	var key uint64
	for dd := 0; dd < MaxIcebergDims; dd++ {
		if newMask&(1<<dd) != 0 {
			key = key<<16 | uint64(oldCoords[dd]&0xFFFF)
		}
	}
	return key
}

// NumCells returns the number of materialised (supported) cells across the
// whole lattice, including the all-aggregated apex.
func (ic *Iceberg) NumCells() int { return len(ic.cells) }

// MinSup returns the iceberg threshold.
func (ic *Iceberg) MinSup() int { return ic.minSup }

// Get looks up one lattice cell: coords[d] is the coordinate of dimension
// d, or -1 when d is aggregated away ("ALL"). ok is false when the cell
// was pruned (support below MinSup) or never existed.
func (ic *Iceberg) Get(coords []int32) (Agg, bool) {
	if len(coords) != ic.dims {
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
	agg, ok := ic.cells[icebergKey{mask: mask, key: key}]
	return agg, ok
}

// Apex returns the grand-total aggregate (every dimension ALL).
func (ic *Iceberg) Apex() Agg {
	agg, _ := ic.cells[icebergKey{}]
	return agg
}
