package table

import "fmt"

// Slice returns a shard view over rows [lo, hi) of t: a FactTable whose
// columns are sub-slices of t's backing arrays and whose dictionaries are
// SHARED with the parent. Sharing the dictionary set is what makes
// distributed execution coherent — a text predicate translated once at
// the coordinator yields integer codes that mean the same thing on every
// shard, and group labels decode identically no matter which shard
// produced the row. The view is immutable like its parent and costs only
// slice headers to build.
func Slice(t *FactTable, lo, hi int) (*FactTable, error) {
	if lo < 0 || hi > t.rows || lo > hi {
		return nil, fmt.Errorf("table: slice [%d,%d) outside rows [0,%d)", lo, hi, t.rows)
	}
	s := &FactTable{
		schema: t.schema,
		rows:   hi - lo,
		dicts:  t.dicts,
	}
	s.dims = make([]Codes, len(t.dims))
	for d, col := range t.dims {
		s.dims[d] = col.slice(lo, hi)
	}
	s.measures = make([][]int32, len(t.measures))
	for m := range t.measures {
		s.measures[m] = t.measures[m][lo:hi:hi]
	}
	if len(t.texts) > 0 {
		s.texts = make([]Codes, len(t.texts))
		for i := range t.texts {
			s.texts[i] = t.texts[i].slice(lo, hi)
		}
	}
	return s, nil
}
