package dict

import (
	"fmt"
	"sort"
)

// Set is the paper's "multiple dictionaries" arrangement: one dictionary
// per text column, keyed by column name. Small per-column dictionaries give
// the scheduler tight translation-time estimates, because each lookup's
// cost depends only on that column's D_L (Sec. III-F).
type Set struct {
	byColumn map[string]Dictionary
}

// NewSet returns an empty dictionary set.
func NewSet() *Set {
	return &Set{byColumn: make(map[string]Dictionary)}
}

// Put registers (or replaces) the dictionary for a column.
func (s *Set) Put(column string, d Dictionary) {
	s.byColumn[column] = d
}

// Get returns the dictionary for a column.
func (s *Set) Get(column string) (Dictionary, bool) {
	d, ok := s.byColumn[column]
	return d, ok
}

// Columns returns the registered column names in sorted order.
func (s *Set) Columns() []string {
	cols := make([]string, 0, len(s.byColumn))
	for c := range s.byColumn {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// Len returns the number of registered columns.
func (s *Set) Len() int { return len(s.byColumn) }

// DictLen returns D_L for a column, or 0 if the column has no dictionary.
func (s *Set) DictLen(column string) int {
	if d, ok := s.byColumn[column]; ok {
		return d.Len()
	}
	return 0
}

// Translate converts one text literal on a column to its code.
func (s *Set) Translate(column, literal string) (ID, error) {
	d, ok := s.byColumn[column]
	if !ok {
		return NotFound, fmt.Errorf("dict: column %q has no dictionary", column)
	}
	id, ok := d.Lookup(literal)
	if !ok {
		return NotFound, fmt.Errorf("dict: %q not in dictionary for column %q", literal, column)
	}
	return id, nil
}

// TranslateRange converts a text interval [from, to] on a column to a code
// interval. It requires an order-preserving dictionary; empty reports that
// no stored value falls in the interval (the predicate selects nothing).
func (s *Set) TranslateRange(column, from, to string) (lo, hi ID, empty bool, err error) {
	d, ok := s.byColumn[column]
	if !ok {
		return 0, 0, false, fmt.Errorf("dict: column %q has no dictionary", column)
	}
	rl, ok := d.(RangeLookuper)
	if !ok {
		return 0, 0, false, fmt.Errorf("dict: dictionary for column %q is not order-preserving", column)
	}
	lo, hi, ok = rl.LookupRange(from, to)
	if !ok {
		return 0, 0, true, nil
	}
	return lo, hi, false, nil
}

// RangeExtraLookuper is implemented by dictionaries whose code order can
// diverge from lexicographic order in an appended tail (see Append): a
// string interval translates to a base code interval plus explicit extra
// point codes.
type RangeExtraLookuper interface {
	LookupRangeExtra(from, to string) (lo, hi ID, extra []ID, ok bool)
}

// TranslateRangeExtra converts a text interval [from, to] on a column to
// a code interval plus extra point codes (empty for purely sorted
// dictionaries). It prefers the RangeExtraLookuper form and falls back to
// plain TranslateRange, so callers can use it uniformly for frozen and
// live dictionaries.
func (s *Set) TranslateRangeExtra(column, from, to string) (lo, hi ID, extra []ID, empty bool, err error) {
	d, ok := s.byColumn[column]
	if !ok {
		return 0, 0, nil, false, fmt.Errorf("dict: column %q has no dictionary", column)
	}
	if rel, ok := d.(RangeExtraLookuper); ok {
		lo, hi, extra, ok = rel.LookupRangeExtra(from, to)
		if !ok {
			return 0, 0, nil, true, nil
		}
		return lo, hi, extra, false, nil
	}
	lo, hi, empty, err = s.TranslateRange(column, from, to)
	return lo, hi, nil, empty, err
}

// Appender is the write side of a growable dictionary (see Append).
type Appender interface {
	Dictionary
	GetOrAdd(s string) (id ID, added bool, err error)
}

// GetOrAdd encodes a literal on a column, appending it to the column's
// dictionary when absent. It fails for frozen (non-Appender) dictionaries.
func (s *Set) GetOrAdd(column, literal string) (ID, bool, error) {
	d, ok := s.byColumn[column]
	if !ok {
		return NotFound, false, fmt.Errorf("dict: column %q has no dictionary", column)
	}
	a, ok := d.(Appender)
	if !ok {
		return NotFound, false, fmt.Errorf("dict: dictionary for column %q is frozen", column)
	}
	return a.GetOrAdd(literal)
}

// AppendSet wraps every column of a frozen set in an append-capable live
// dictionary (stable base codes, growable tail). The frozen set is left
// untouched; the returned set is the live table's dictionary set.
func AppendSet(frozen *Set) (*Set, error) {
	live := NewSet()
	if frozen != nil {
		for col, d := range frozen.byColumn {
			a, err := NewAppend(d)
			if err != nil {
				return nil, fmt.Errorf("dict: column %q: %w", col, err)
			}
			live.Put(col, a)
		}
	}
	return live, nil
}

// Decode converts a code on a column back to its string.
func (s *Set) Decode(column string, id ID) (string, error) {
	d, ok := s.byColumn[column]
	if !ok {
		return "", fmt.Errorf("dict: column %q has no dictionary", column)
	}
	str, ok := d.Decode(id)
	if !ok {
		return "", fmt.Errorf("dict: code %d invalid for column %q", id, column)
	}
	return str, nil
}
