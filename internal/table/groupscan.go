package table

import "sort"

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
