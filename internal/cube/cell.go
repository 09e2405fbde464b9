// Package cube implements the MOLAP side of the hybrid OLAP system: dense
// array-based data cubes in the style of Zhao, Deshpande & Naughton (the
// paper's [20]), chunked into fixed-size n-dimensional chunks with
// chunk-offset compression for sparse chunks, organised into a
// multi-resolution set (paper Fig. 1), and aggregated by a parallel worker
// pool — the Go analogue of the paper's OpenMP implementation.
//
// Cube processing "is always constrained by memory bandwidth and not by the
// performance of the CPU" (Sec. III-B), so the aggregation loops stream
// chunk storage linearly and the parallel version partitions chunks
// statically across workers.
package cube

import (
	"fmt"

	"hybridolap/internal/table"
)

// Cell is one aggregate cell of the cube. It carries enough state to answer
// sum, count, avg, min and max queries exactly, matching what a fact-table
// scan over the same rows would produce.
type Cell struct {
	Sum   float64
	Count int64
	Min   float64
	Max   float64
}

// CellSize is E_size in eq. (3): the in-memory size of one cell in bytes.
const CellSize = 32

// add folds one measure value into the cell.
//
//olaplint:noalloc
func (c *Cell) add(v float64) {
	if c.Count == 0 || v < c.Min {
		c.Min = v
	}
	if c.Count == 0 || v > c.Max {
		c.Max = v
	}
	c.Sum += v
	c.Count++
}

// merge folds another cell into this one.
//
//olaplint:noalloc
func (c *Cell) merge(o Cell) {
	if o.Count == 0 {
		return
	}
	if c.Count == 0 {
		*c = o
		return
	}
	if o.Min < c.Min {
		c.Min = o.Min
	}
	if o.Max > c.Max {
		c.Max = o.Max
	}
	c.Sum += o.Sum
	c.Count += o.Count
}

// Agg is the result of aggregating a region of the cube.
type Agg struct {
	Sum   float64
	Count int64
	Min   float64
	Max   float64
}

// fold accumulates a cell into the aggregate.
//
//olaplint:noalloc
func (a *Agg) fold(c Cell) {
	if c.Count == 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = c.Min, c.Max
	} else {
		if c.Min < a.Min {
			a.Min = c.Min
		}
		if c.Max > a.Max {
			a.Max = c.Max
		}
	}
	a.Sum += c.Sum
	a.Count += c.Count
}

// foldRun accumulates a contiguous run of cells, skipping empties — the
// generic dense-chunk kernel for partially filled runs.
//
//olaplint:noalloc
func (a *Agg) foldRun(run []Cell) {
	for i := range run {
		if run[i].Count != 0 {
			a.fold(run[i])
		}
	}
}

// foldRunFull accumulates a run known to contain no empty cell (chunk
// occupancy metadata says so: a dense chunk with filled == volume, or the
// cells array of a compressed chunk, which stores filled cells only). The
// per-cell Count != 0 occupancy test and the per-cell empty-accumulator
// branch both vanish from the loop; results are identical to foldRun
// cell by cell.
//
//olaplint:noalloc
func (a *Agg) foldRunFull(run []Cell) {
	if len(run) == 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = run[0].Min, run[0].Max
	}
	for i := range run {
		c := &run[i]
		a.Sum += c.Sum
		a.Count += c.Count
		if c.Min < a.Min {
			a.Min = c.Min
		}
		if c.Max > a.Max {
			a.Max = c.Max
		}
	}
}

// Merge combines two partial aggregates.
func (a Agg) Merge(b Agg) Agg {
	a.fold(Cell(b))
	return a
}

// Avg returns Sum/Count (0 for an empty aggregate).
func (a Agg) Avg() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Result is the answer to op in the pre-finalise form of a scan partial:
// sum and avg carry the raw sum, min and max the selected value, count the
// row count alone. table.Finalize (or FinalizeGroups) completes it, and
// table.Merge combines it with other partials of the same op.
func (a Agg) Result(op table.AggOp) table.ScanResult {
	r := table.ScanResult{Rows: a.Count}
	switch op {
	case table.AggSum, table.AggAvg:
		r.Value = a.Sum
	case table.AggMin:
		r.Value = a.Min
	case table.AggMax:
		r.Value = a.Max
	}
	return r
}

// Range is an inclusive coordinate interval in one dimension, the paper's
// (f, t) pair of a condition.
type Range struct {
	From, To uint32
}

// Width returns the number of coordinates covered.
func (r Range) Width() int64 {
	if r.To < r.From {
		return 0
	}
	return int64(r.To) - int64(r.From) + 1
}

// Box is an axis-aligned region of the cube: one Range per dimension,
// expressed in the cube's own level coordinates.
type Box []Range

// Cells returns the number of cells the box covers (the sub-cube size of
// eq. (3) divided by E_size).
func (b Box) Cells() int64 {
	n := int64(1)
	for _, r := range b {
		n *= r.Width()
	}
	return n
}

// Bytes returns the sub-cube size in bytes (eq. (3)).
func (b Box) Bytes() int64 { return b.Cells() * CellSize }

// validate clamps/checks the box against cube cardinalities.
func (b Box) validate(cards []int) error {
	if len(b) != len(cards) {
		return fmt.Errorf("cube: box has %d dimensions, cube has %d", len(b), len(cards))
	}
	for d, r := range b {
		if r.To < r.From {
			return fmt.Errorf("cube: inverted range %v in dimension %d", r, d)
		}
		if int64(r.To) >= int64(cards[d]) {
			return fmt.Errorf("cube: range %v exceeds cardinality %d in dimension %d", r, cards[d], d)
		}
	}
	return nil
}
