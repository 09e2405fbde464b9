package dict

import (
	"fmt"
	"math"
	"sync"
)

// Append is the live-table dictionary: a frozen, order-preserving base
// (codes 0..base.Len()-1, sorted so range predicates stay interval
// predicates) plus a concurrently growable tail whose entries take
// arrival-order codes >= base.Len(). Codes are *stable*: appending never
// renumbers an existing entry, so encoded columns in published stripes
// stay valid forever. The price is that tail codes are not in
// lexicographic order — LookupRangeExtra compensates by returning the
// in-range tail codes as explicit points alongside the base interval.
//
// Reads (Lookup/Decode/Len/range lookups) take the read lock and are safe
// concurrently with appends; GetOrAdd serialises writers under the write
// lock. The frozen base is immutable and needs no locking.
type Append struct {
	mu      sync.RWMutex
	base    Dictionary
	nbase   int
	tail    []string      // arrival order; entry i has code nbase+i
	tailIdx map[string]ID // tail string -> code
}

// NewAppend wraps a frozen base dictionary (nil for a dictionary born
// empty). The base must be order-preserving (a RangeLookuper) so text
// range predicates keep translating to code intervals.
func NewAppend(base Dictionary) (*Append, error) {
	n := 0
	if base != nil {
		if _, ok := base.(RangeLookuper); !ok {
			return nil, fmt.Errorf("dict: append base must be order-preserving")
		}
		n = base.Len()
	}
	return &Append{base: base, nbase: n, tailIdx: make(map[string]ID)}, nil
}

// Lookup implements Dictionary.
func (d *Append) Lookup(s string) (ID, bool) {
	if d.base != nil {
		if id, ok := d.base.Lookup(s); ok {
			return id, true
		}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.tailIdx[s]
	return id, ok
}

// Decode implements Dictionary.
func (d *Append) Decode(id ID) (string, bool) {
	if int(id) < d.nbase {
		return d.base.Decode(id)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	i := int(id) - d.nbase
	if i < 0 || i >= len(d.tail) {
		return "", false
	}
	return d.tail[i], true
}

// Len implements Dictionary: D_L of the live dictionary, base plus tail.
func (d *Append) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nbase + len(d.tail)
}

// GetOrAdd returns the code for s, appending it with the next
// arrival-order code when absent. added reports whether a new entry was
// created.
func (d *Append) GetOrAdd(s string) (id ID, added bool, err error) {
	if d.base != nil {
		if id, ok := d.base.Lookup(s); ok {
			return id, false, nil
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.tailIdx[s]; ok {
		return id, false, nil
	}
	next := d.nbase + len(d.tail)
	if next >= math.MaxUint32 {
		return NotFound, false, ErrFull
	}
	id = ID(next)
	d.tail = append(d.tail, s)
	d.tailIdx[s] = id
	return id, true, nil
}

// LookupRange implements RangeLookuper over the base interval only. Tail
// entries inside [from, to] are NOT covered by the returned interval —
// callers that must see appended strings use LookupRangeExtra.
func (d *Append) LookupRange(from, to string) (lo, hi ID, ok bool) {
	if d.base == nil {
		return 0, 0, false
	}
	return d.base.(RangeLookuper).LookupRange(from, to)
}

// LookupRangeExtra translates the string interval [from, to] against the
// full live dictionary: the base contributes a code interval [lo, hi] and
// every tail entry with from <= s <= to contributes one extra point code,
// in arrival order. When the base contributes nothing but tail entries
// match, the interval comes back inverted (lo=1, hi=0) so a predicate
// built as "code in [lo,hi] or code in extra" accepts exactly the rows a
// rebuilt sorted dictionary would accept. ok is false only when nothing
// in the dictionary falls inside [from, to].
func (d *Append) LookupRangeExtra(from, to string) (lo, hi ID, extra []ID, ok bool) {
	if from > to {
		return 0, 0, nil, false
	}
	baseOK := false
	if d.base != nil {
		lo, hi, baseOK = d.base.(RangeLookuper).LookupRange(from, to)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, s := range d.tail {
		if from <= s && s <= to {
			extra = append(extra, ID(d.nbase+i))
		}
	}
	if !baseOK {
		if len(extra) == 0 {
			return 0, 0, nil, false
		}
		lo, hi = 1, 0
	}
	return lo, hi, extra, true
}
