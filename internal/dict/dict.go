// Package dict implements the paper's text-to-integer translation layer.
//
// The hybrid OLAP system does not store text in GPU memory: "the text is
// translated into integers using dictionaries when the database is built.
// Therefore every text reference in an incoming query must be translated
// into integer form before the query is submitted to the GPU" (Sec. III-F).
// The implementation deliberately keeps "a smaller dictionary for each text
// column in the table rather than having one large dictionary for all text
// columns", which makes per-query translation-time estimates tight.
//
// Four interchangeable dictionary implementations are provided:
//
//   - Sorted: ids are assigned in lexicographic order, so string range
//     predicates map to integer range predicates. This is the canonical
//     encoder used when building fact tables.
//   - Hash: O(1) expected lookup; fastest for equality-only translation.
//   - Trie: byte-trie with per-node sorted children; prefix queries.
//   - Linear: naive linear scan whose cost grows linearly with dictionary
//     length — the cost shape the paper's P_DICT model (eq. 17) describes;
//     used to calibrate and validate the translation-time model.
package dict

import (
	"errors"
	"fmt"
)

// ID is a dictionary code. The paper stores encoded columns as integers on
// the GPU; 32 bits covers any realistic OLAP dictionary and halves memory
// traffic relative to int64.
type ID = uint32

// NotFound is returned by Lookup implementations for absent strings; it is
// distinct from any valid ID only through the accompanying bool.
const NotFound = ID(0xFFFFFFFF)

// ErrFrozen is returned when inserting into a frozen dictionary.
var ErrFrozen = errors.New("dict: dictionary is frozen")

// ErrFull is returned when a dictionary would exceed the ID space.
var ErrFull = errors.New("dict: dictionary full")

// Dictionary is the read side shared by all implementations.
type Dictionary interface {
	// Lookup returns the code for s and whether it is present.
	Lookup(s string) (ID, bool)
	// Decode returns the string for a code and whether the code is valid.
	Decode(id ID) (string, bool)
	// Len returns the number of distinct entries (D_L in the paper).
	Len() int
}

// RangeLookuper is implemented by order-preserving dictionaries: it maps a
// lexicographic string interval to a code interval.
type RangeLookuper interface {
	// LookupRange returns the smallest code interval [lo, hi] containing
	// every stored string s with from <= s <= to (inclusive bounds). ok is
	// false when no stored string falls in the interval.
	LookupRange(from, to string) (lo, hi ID, ok bool)
}

// Kind names a dictionary implementation.
type Kind int

const (
	KindSorted Kind = iota
	KindHash
	KindTrie
	KindLinear
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindSorted:
		return "sorted"
	case KindHash:
		return "hash"
	case KindTrie:
		return "trie"
	case KindLinear:
		return "linear"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// validID reports whether id indexes a table of n entries.
func validID(id ID, n int) bool { return int(id) < n }
