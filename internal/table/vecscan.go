package table

import (
	"fmt"
	"sort"
	"sync"
)

// BatchSize is the number of rows the vectorized kernel processes per step.
// 1024 rows keep the selection vectors (4 KiB each) and the touched slice
// of each predicate column (1-4 KiB) resident in L1 while amortising the
// per-batch dispatch over enough rows that the monomorphic inner loops
// dominate.
const BatchSize = 1024

// maxBatchSize bounds the selection-vector capacity; rangeBatch clamps to
// it so the batch-size microbenchmarks can sweep beyond BatchSize without
// reallocating scratch.
const maxBatchSize = 4096

// scanScratch is the per-RangeInto working set: the shared envelope
// selection, the per-member refinement copy and a keyed member's packed
// keys, reused across batches. Pooled so the steady-state scan loop
// allocates nothing per call — gpusim launches one RangeInto per unit per
// kernel, and the paper's throughput tables run millions of them.
type scanScratch struct {
	shared []int32
	member []int32
	keys   []GroupKey
}

var scanScratchPool = sync.Pool{
	New: func() any {
		return &scanScratch{
			shared: make([]int32, maxBatchSize),
			member: make([]int32, maxBatchSize),
			keys:   make([]GroupKey, maxBatchSize),
		}
	},
}

// --- filter kernels -------------------------------------------------------
//
// Each kernel is monomorphic over one predicate shape and one code width
// (the compiler stencils a generic kernel once per width, so inside a loop
// there is no width left to test). A "seed" kernel scans a whole batch and
// fills the selection vector with the in-batch offsets of rows passing the
// shared predicate; a "refine" kernel compacts an existing selection
// vector in place. Both take the column already cut to the batch, so
// offsets are relative to the batch base and the vector stays int32
// regardless of table size.

// seedRange compares in the column's own type: bindPred has narrowed the
// interval to codes the width can hold, so from <= from+span never wraps
// and the two comparisons fuse into one unsigned subtract-compare. The
// selection vector is built branch-free: the candidate offset is stored
// unconditionally and the write cursor advances only on a match, so a
// mispredicted row costs a dead store instead of a pipeline flush — the
// MonetDB/X100 idiom the motivation cites.
//
//olaplint:noalloc
func seedRange[T code](col []T, from, span T, sel []int32) int {
	k := 0
	for i, v := range col {
		sel[k] = int32(i)
		if v-from <= span {
			k++
		}
	}
	return k
}

//olaplint:noalloc
func refineRange[T code](col []T, from, span T, sel []int32) int {
	k := 0
	for _, i := range sel {
		sel[k] = i
		if col[i]-from <= span {
			k++
		}
	}
	return k
}

//olaplint:noalloc
func orMatches(v, from, to uint32, or []CodeRange) bool {
	if v >= from && v <= to {
		return true
	}
	for _, r := range or {
		if v >= r.From && v <= r.To {
			return true
		}
	}
	return false
}

// refineOr and the point kernels widen each code to compare it with their
// 32-bit constants: a zero-extending load, free.
//
//olaplint:noalloc
func refineOr[T code](col []T, from, to uint32, or []CodeRange, sel []int32) int {
	k := 0
	for _, i := range sel {
		sel[k] = i
		if orMatches(uint32(col[i]), from, to, or) {
			k++
		}
	}
	return k
}

//olaplint:noalloc
func pointMatches(v uint32, points []uint32) bool {
	for _, p := range points {
		if v == p {
			return true
		}
	}
	return false
}

//olaplint:noalloc
func seedPoints[T code](col []T, points []uint32, sel []int32) int {
	k := 0
	for i, v := range col {
		sel[k] = int32(i)
		if pointMatches(uint32(v), points) {
			k++
		}
	}
	return k
}

//olaplint:noalloc
func refinePoints[T code](col []T, points []uint32, sel []int32) int {
	k := 0
	for _, i := range sel {
		sel[k] = i
		if pointMatches(uint32(col[i]), points) {
			k++
		}
	}
	return k
}

// seed dispatches the shared predicate's width and shape once per batch
// (not once per row): a plain range, or a lone member's own point list.
// Kept out of line: inlined into the batch loop the seed kernel compiles
// 1.4-1.7x slower (EXPERIMENTS.md, "One bound plan").
//
//olaplint:noalloc
//go:noinline
func (p *boundPred) seed(base, n int, sel []int32) int {
	switch {
	case p.col.u8 != nil:
		return seedShape(p, p.col.u8[base:base+n], sel)
	case p.col.u16 != nil:
		return seedShape(p, p.col.u16[base:base+n], sel)
	default:
		return seedShape(p, p.col.u32[base:base+n], sel)
	}
}

//olaplint:noalloc
func seedShape[T code](p *boundPred, col []T, sel []int32) int {
	if p.shape == shapePoints {
		return seedPoints(col, p.points, sel)
	}
	return seedRange(col, T(p.from), T(p.to-p.from), sel)
}

// refine dispatches width and shape once per batch over the surviving
// rows.
//
//olaplint:noalloc
func (p *boundPred) refine(base int, sel []int32) int {
	switch {
	case p.col.u8 != nil:
		return refineShape(p, p.col.u8[base:], sel)
	case p.col.u16 != nil:
		return refineShape(p, p.col.u16[base:], sel)
	default:
		return refineShape(p, p.col.u32[base:], sel)
	}
}

//olaplint:noalloc
func refineShape[T code](p *boundPred, col []T, sel []int32) int {
	switch p.shape {
	case shapePoints:
		return refinePoints(col, p.points, sel)
	case shapeOr:
		return refineOr(col, p.from, p.to, p.or, sel)
	default:
		return refineRange(col, T(p.from), T(p.to-p.from), sel)
	}
}

// --- aggregation kernels --------------------------------------------------
//
// One loop per AggOp, over either a selection vector or a dense run (the
// unfiltered case). Accumulation order matches ScanRange exactly — row
// ascending, one float add per matching row — so results are bit-identical
// to the reference kernel, not merely close.

//olaplint:noalloc
func sumSel(acc float64, meas []float64, base int, sel []int32) float64 {
	for _, i := range sel {
		acc += meas[base+int(i)]
	}
	return acc
}

//olaplint:noalloc
func minSel(acc float64, first bool, meas []float64, base int, sel []int32) float64 {
	for _, i := range sel {
		v := meas[base+int(i)]
		if first || v < acc {
			acc = v
		}
		first = false
	}
	return acc
}

//olaplint:noalloc
func maxSel(acc float64, first bool, meas []float64, base int, sel []int32) float64 {
	for _, i := range sel {
		v := meas[base+int(i)]
		if first || v > acc {
			acc = v
		}
		first = false
	}
	return acc
}

//olaplint:noalloc
func sumRun(acc float64, run []float64) float64 {
	for _, v := range run {
		acc += v
	}
	return acc
}

//olaplint:noalloc
func minRun(acc float64, first bool, run []float64) float64 {
	for _, v := range run {
		if first || v < acc {
			acc = v
		}
		first = false
	}
	return acc
}

//olaplint:noalloc
func maxRun(acc float64, first bool, run []float64) float64 {
	for _, v := range run {
		if first || v > acc {
			acc = v
		}
		first = false
	}
	return acc
}

// fillDense seeds a dense selection of the first n in-batch offsets.
//
//olaplint:noalloc
func fillDense(sel []int32, n int) {
	for i := 0; i < n; i++ {
		sel[i] = int32(i)
	}
}

// accumulate folds the selected rows into the member's scalar partial:
// row ascending, one float add per row, like ScanRange.
//
//olaplint:noalloc
func (m *member) accumulate(st *ScanResult, base int, sel []int32) {
	first := st.Rows == 0
	st.Rows += int64(len(sel))
	switch m.op {
	case AggSum, AggAvg:
		st.Value = sumSel(st.Value, m.meas, base, sel)
	case AggMin:
		st.Value = minSel(st.Value, first, m.meas, base, sel)
	case AggMax:
		st.Value = maxSel(st.Value, first, m.meas, base, sel)
	}
}

// accumulateRun is accumulate over every row of [lo, hi): no selection
// vector to build or chase.
//
//olaplint:noalloc
func (m *member) accumulateRun(st *ScanResult, lo, hi int) {
	first := st.Rows == 0
	st.Rows += int64(hi - lo)
	switch m.op {
	case AggSum, AggAvg:
		st.Value = sumRun(st.Value, m.meas[lo:hi])
	case AggMin:
		st.Value = minRun(st.Value, first, m.meas[lo:hi])
	case AggMax:
		st.Value = maxRun(st.Value, first, m.meas[lo:hi])
	}
}

// gatherKeys shifts the level code of each selected row (base + its
// offset), the stored code >> shift, into the low 16 bits of its key;
// len(keys) == len(sel).
//
//olaplint:noalloc
func gatherKeys[T code](keys []GroupKey, col []T, base int, sel []int32, shift uint8) {
	for j := range keys {
		keys[j] = keys[j]<<16 | GroupKey(col[base+int(sel[j])]>>shift)&0xFFFF
	}
}

// gatherKeysDiv is gatherKeys for a fanout that is not a power of two.
//
//olaplint:noalloc
func gatherKeysDiv[T code](keys []GroupKey, col []T, base int, sel []int32, div T) {
	for j := range keys {
		keys[j] = keys[j]<<16 | GroupKey(col[base+int(sel[j])]/div)&0xFFFF
	}
}

// gather dispatches one key column's fanout once per batch.
//
//olaplint:noalloc
func gather[T code](keys []GroupKey, col []T, base int, sel []int32, gc *levelCol) {
	if gc.div == 1<<gc.shift {
		gatherKeys(keys, col, base, sel, gc.shift)
	} else {
		gatherKeysDiv(keys, col, base, sel, T(gc.div))
	}
}

// keysOf packs the member's key coordinates of the selected rows into
// keys[:len(sel)], a column at a time: each key column is read at its own
// width and divided by its own fanout, both chosen once per batch.
//
//olaplint:noalloc
func (m *member) keysOf(base int, sel []int32, keys []GroupKey) []GroupKey {
	keys = keys[:len(sel)]
	clear(keys)
	for i := range m.gcols {
		gc := &m.gcols[i]
		switch {
		case gc.col.u8 != nil:
			gather(keys, gc.col.u8, base, sel, gc)
		case gc.col.u16 != nil:
			gather(keys, gc.col.u16, base, sel, gc)
		default:
			gather(keys, gc.col.u32, base, sel, gc)
		}
	}
	return keys
}

// scatter folds the selected rows into per-key accumulators, keys[j] the
// packed key of row sel[j]. One loop per op over the surviving rows: the
// op switch runs once per batch, not once per row.
func (m *member) scatter(dst Groups, base int, sel []int32, keys []GroupKey) {
	keys = keys[:len(sel)]
	switch m.op {
	case AggSum, AggAvg:
		for j, i := range sel {
			acc := dst[keys[j]]
			acc.Rows++
			acc.Value += m.meas[base+int(i)]
			dst[keys[j]] = acc
		}
	case AggCount:
		for _, key := range keys {
			acc := dst[key]
			acc.Rows++
			dst[key] = acc
		}
	case AggMin:
		for j, i := range sel {
			v := m.meas[base+int(i)]
			acc := dst[keys[j]]
			if acc.Rows == 0 || v < acc.Value {
				acc.Value = v
			}
			acc.Rows++
			dst[keys[j]] = acc
		}
	case AggMax:
		for j, i := range sel {
			v := m.meas[base+int(i)]
			acc := dst[keys[j]]
			if acc.Rows == 0 || v > acc.Value {
				acc.Value = v
			}
			acc.Rows++
			dst[keys[j]] = acc
		}
	}
}

// State is one member's accumulation state of a pass, with the same
// pre-Finalize semantics as ScanRange / GroupScanRange: a scalar partial
// or, for a keyed member, per-key partials (allocated on the first
// matching row).
type State struct {
	Scalar ScanResult
	Groups Groups // nil for scalar members
}

// RangeInto runs the plan's kernel over rows [lo, hi), accumulating into
// states (one per member, caller-owned). Chaining consecutive ranges
// through the same states continues each accumulation as if the rows
// immediately followed the ones already covered, so it is bit-identical to
// a single reference scan over their concatenation (continuous
// accumulation rounds like one long scan, not like Merge / MergeGroups
// over partial sums) — what snapshot scans rely on to match a from-scratch
// rebuild exactly, and a gpusim unit that spans stripes to answer like the
// same rows in one stripe. Safe for concurrent use; allocates nothing in
// steady state.
func (pl *Plan) RangeInto(lo, hi int, states []State) error {
	return pl.rangeBatch(lo, hi, states, BatchSize)
}

// rangeBatch is RangeInto with an explicit batch size (the
// microbenchmarks sweep it; production callers always pass BatchSize).
func (pl *Plan) rangeBatch(lo, hi int, states []State, batch int) error {
	if lo < 0 || hi > pl.rows || lo > hi {
		return fmt.Errorf("table: scan range [%d,%d) outside [0,%d)", lo, hi, pl.rows)
	}
	if len(states) != len(pl.members) {
		return fmt.Errorf("table: got %d states for %d members", len(states), len(pl.members))
	}
	if pl.last < 0 {
		return nil
	}
	batch = min(max(batch, 1), maxBatchSize)
	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	for base := lo; base < hi; base += batch {
		n := min(batch, hi-base)
		k := n
		if pl.sharedSet {
			k = pl.shared.seed(base, n, sc.shared)
		} else if pl.fill {
			fillDense(sc.shared, n)
		}
		if k == 0 {
			continue
		}
		for mi := range pl.members {
			m := &pl.members[mi]
			st := &states[mi]
			switch {
			case m.never:
				continue
			case m.dense:
				m.accumulateRun(&st.Scalar, base, base+n)
				continue
			}
			sel := sc.shared[:k]
			if len(m.preds) > 0 {
				// Everyone after this member reads the shared selection, so
				// it refines a copy — unless it is the last.
				if mi != pl.last {
					sel = sc.member[:k]
					copy(sel, sc.shared)
				}
				for pi := 0; pi < len(m.preds) && len(sel) > 0; pi++ {
					sel = sel[:m.preds[pi].refine(base, sel)]
				}
				if len(sel) == 0 {
					continue
				}
			}
			if m.gcols == nil {
				m.accumulate(&st.Scalar, base, sel)
				continue
			}
			if st.Groups == nil {
				st.Groups = make(Groups)
			}
			m.scatter(st.Groups, base, sel, m.keysOf(base, sel, sc.keys))
		}
	}
	return nil
}

// FoldCells folds every per-cell partial into one scalar partial, in
// sorted key order (deterministic). For count the fold is exact integer
// addition and for min/max an exact selection, so the folded partial is
// bit-identical to the member's scalar accumulation over the same rows;
// sum/avg members never carry cells (see CellShape).
func FoldCells(op AggOp, cells Groups) ScanResult {
	keys := make([]GroupKey, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var acc ScanResult
	for _, k := range keys {
		acc = Merge(op, acc, cells[k])
	}
	return acc
}
