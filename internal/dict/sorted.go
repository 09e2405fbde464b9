package dict

import (
	"fmt"
	"math"
	"sort"
)

// Sorted is an order-preserving dictionary: codes are assigned in
// lexicographic order of the stored strings, so for any stored a <= b,
// code(a) <= code(b). This lets string range predicates in queries become
// integer range predicates on the encoded GPU columns — the property the
// hybrid system's filtration kernels rely on.
//
// Lookup is a binary search over a sorted string table: O(log n) with no
// per-entry allocation. Sorted is immutable after construction.
type Sorted struct {
	entries []string
}

// NewSorted builds a Sorted dictionary from strings sorted in increasing
// lexicographic order with no duplicates. It returns an error if the input
// is unsorted, has duplicates, or exceeds the ID space.
func NewSorted(sortedUnique []string) (*Sorted, error) {
	if len(sortedUnique) >= math.MaxUint32 {
		return nil, ErrFull
	}
	for i := 1; i < len(sortedUnique); i++ {
		if sortedUnique[i-1] >= sortedUnique[i] {
			return nil, fmt.Errorf("dict: NewSorted input not strictly sorted at %d (%q >= %q)",
				i, sortedUnique[i-1], sortedUnique[i])
		}
	}
	e := make([]string, len(sortedUnique))
	copy(e, sortedUnique)
	return &Sorted{entries: e}, nil
}

// Lookup implements Dictionary.
func (d *Sorted) Lookup(s string) (ID, bool) {
	i := sort.SearchStrings(d.entries, s)
	if i < len(d.entries) && d.entries[i] == s {
		return ID(i), true
	}
	return NotFound, false
}

// Decode implements Dictionary.
func (d *Sorted) Decode(id ID) (string, bool) {
	if !validID(id, len(d.entries)) {
		return "", false
	}
	return d.entries[id], true
}

// Len implements Dictionary.
func (d *Sorted) Len() int { return len(d.entries) }

// LookupRange implements RangeLookuper: the code interval covering every
// stored string in [from, to].
func (d *Sorted) LookupRange(from, to string) (lo, hi ID, ok bool) {
	if from > to {
		return 0, 0, false
	}
	i := sort.SearchStrings(d.entries, from)
	j := sort.Search(len(d.entries), func(k int) bool { return d.entries[k] > to })
	if i >= j {
		return 0, 0, false
	}
	return ID(i), ID(j - 1), true
}
