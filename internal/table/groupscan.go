package table

import (
	"fmt"
	"sort"
)

// GroupCol selects one grouping column: a (dimension, level) pair, or a
// text column when Text is set. Grouping by a text column groups by its
// dictionary codes (decode for display).
type GroupCol struct {
	Dim, Level int
	Text       bool
	TextIndex  int
}

// MaxGroupCols bounds a grouping key so it packs into one uint64
// (16 bits per component).
const MaxGroupCols = 4

// GroupKey packs up to MaxGroupCols 16-bit coordinates into a uint64.
type GroupKey = uint64

// PackKey builds a GroupKey from coordinates (each must be < 65536).
func PackKey(coords []uint32) GroupKey {
	var k GroupKey
	for _, c := range coords {
		k = k<<16 | GroupKey(c&0xFFFF)
	}
	return k
}

// UnpackKey reverses PackKey for n components.
func UnpackKey(k GroupKey, n int) []uint32 {
	out := make([]uint32, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = uint32(k & 0xFFFF)
		k >>= 16
	}
	return out
}

// GroupRow is one group of a finalised grouped aggregation.
type GroupRow struct {
	Keys  []uint32
	Value float64
	Rows  int64
}

// Groups is a partial grouped aggregation state: group key → accumulator.
type Groups map[GroupKey]ScanResult

// GroupScanRange runs the grouped member over rows [lo, hi) — filter rows
// by its predicates, then aggregate the measure per distinct combination of
// its GroupBy columns — returning partial per-group accumulators
// (pre-Finalize semantics, as in ScanRange). It rejects a member without
// GroupBy columns.
func GroupScanRange(t *FactTable, req Member, lo, hi int) (Groups, error) {
	if len(req.GroupBy) == 0 {
		return nil, fmt.Errorf("table: grouped scan needs at least one group column")
	}
	if len(req.GroupBy) > MaxGroupCols {
		return nil, fmt.Errorf("table: at most %d group columns (got %d)", MaxGroupCols, len(req.GroupBy))
	}
	if lo < 0 || hi > t.rows || lo > hi {
		return nil, fmt.Errorf("table: scan range [%d,%d) outside [0,%d)", lo, hi, t.rows)
	}
	if req.Op != AggCount {
		if req.Measure < 0 || req.Measure >= len(t.measures) {
			return nil, fmt.Errorf("table: measure %d out of range", req.Measure)
		}
	}
	pcols := make([]levelCol, len(req.Predicates))
	for i := range req.Predicates {
		if err := validatePred(t, &req.Predicates[i]); err != nil {
			return nil, err
		}
		pcols[i] = predCol(t, req.Predicates[i])
	}
	gcols := make([]levelCol, len(req.GroupBy))
	for i, g := range req.GroupBy {
		col, err := validateGroupCol(t, g)
		if err != nil {
			return nil, err
		}
		gcols[i] = col
	}
	var meas []int32
	if req.Op != AggCount {
		meas = t.measures[req.Measure]
	}

	groups := make(Groups)
rowLoop:
	for r := lo; r < hi; r++ {
		for i := range req.Predicates {
			p := &req.Predicates[i]
			v := pcols[i].at(r)
			if len(p.Or) == 0 {
				if v < p.From || v > p.To {
					continue rowLoop
				}
			} else if !p.matches(v) {
				continue rowLoop
			}
		}
		var key GroupKey
		for _, gc := range gcols {
			key = key<<16 | GroupKey(gc.at(r)&0xFFFF)
		}
		acc := groups[key]
		first := acc.Rows == 0
		acc.Rows++
		switch req.Op {
		case AggSum, AggAvg:
			acc.Value += float64(meas[r])
		case AggCount:
		case AggMin:
			if v := float64(meas[r]); first || v < acc.Value {
				acc.Value = v
			}
		case AggMax:
			if v := float64(meas[r]); first || v > acc.Value {
				acc.Value = v
			}
		}
		groups[key] = acc
	}
	return groups, nil
}

// MergeGroups folds partial grouped states (the per-unit reduction).
func MergeGroups(op AggOp, dst, src Groups) Groups {
	if dst == nil {
		dst = make(Groups, len(src))
	}
	for k, v := range src {
		dst[k] = Merge(op, dst[k], v)
	}
	return dst
}

// FinalizeGroups completes the aggregation of a measure stored at scale
// (Finalize per group) and returns rows sorted by key (deterministic
// output order).
func FinalizeGroups(op AggOp, scale int, g Groups, nCols int) []GroupRow {
	keys := make([]GroupKey, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]GroupRow, len(keys))
	for i, k := range keys {
		r := Finalize(op, scale, g[k])
		out[i] = GroupRow{Keys: UnpackKey(k, nCols), Value: r.Value, Rows: r.Rows}
	}
	return out
}

// GroupScan runs a grouped member over the whole table sequentially.
func GroupScan(t *FactTable, req Member) ([]GroupRow, error) {
	g, err := GroupScanRange(t, req, 0, t.rows)
	if err != nil {
		return nil, err
	}
	return FinalizeGroups(req.Op, t.schema.MeasureScale(req.Measure), g, len(req.GroupBy)), nil
}
