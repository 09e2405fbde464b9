package dict

import (
	"math"
	"sort"
)

// Builder accumulates the distinct strings of a column while the database
// is being built (the paper performs translation "when the database is
// built"). Add returns a provisional code usable until Build is called;
// Build then produces a frozen dictionary of the requested kind together
// with a remapping from provisional to final codes.
type Builder struct {
	byString map[string]ID
	strings  []string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{byString: make(map[string]ID)}
}

// Add interns s and returns its provisional code (dense, insertion order).
func (b *Builder) Add(s string) (ID, error) {
	if id, ok := b.byString[s]; ok {
		return id, nil
	}
	if len(b.strings) >= math.MaxUint32 {
		return NotFound, ErrFull
	}
	id := ID(len(b.strings))
	b.byString[s] = id
	b.strings = append(b.strings, s)
	return id, nil
}

// Len returns the number of distinct strings added so far.
func (b *Builder) Len() int { return len(b.strings) }

// Build freezes the builder into a dictionary of the given kind. remap maps
// each provisional code (index) to the final code in the built dictionary;
// callers that stored provisional codes in columns must rewrite them.
// For KindHash, KindTrie and KindLinear, ids are still assigned in sorted
// order so that all kinds agree on codes and encoded columns are portable
// across implementations.
func (b *Builder) Build(kind Kind) (Dictionary, []ID, error) {
	sorted := make([]string, len(b.strings))
	copy(sorted, b.strings)
	sort.Strings(sorted)

	finalOf := make(map[string]ID, len(sorted))
	for i, s := range sorted {
		finalOf[s] = ID(i)
	}
	remap := make([]ID, len(b.strings))
	for prov, s := range b.strings {
		remap[prov] = finalOf[s]
	}

	var d Dictionary
	var err error
	switch kind {
	case KindSorted:
		d, err = NewSorted(sorted)
	case KindHash:
		d, err = NewHash(sorted)
	case KindTrie:
		d, err = NewTrie(sorted)
	case KindLinear:
		d, err = NewLinear(sorted)
	default:
		return nil, nil, errUnknownKind(kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return d, remap, nil
}

type errUnknownKind Kind

func (e errUnknownKind) Error() string { return "dict: unknown kind " + Kind(e).String() }
