package table

import (
	"fmt"
	"math/bits"
)

// Codes is one code column of a fact table — a dimension's finest-level
// coordinates or a text column's dictionary codes — stored in the
// narrowest of 8, 16 or 32 bits that holds every code of the column.
// Exactly one of the three slices is set. The width is never chosen by a
// caller: a dimension takes it from its finest cardinality, a text
// column from the largest code the stripe holds (codeWidth), so a
// dictionary that outgrows a width widens only the stripes built after it
// did.
//
// Readers outside the vectorized kernels go through At (a row at a time:
// the reference scans) or AppendTo (a column widened: compaction, and a
// cube build's row batches, read through Slice views); only the kernels
// of vecscan.go see the typed slices, and they pick the width once per
// batch.
type Codes struct {
	u8  []uint8
	u16 []uint16
	u32 []uint32
}

// code is the set of storage widths a kernel is instantiated for.
type code interface{ uint8 | uint16 | uint32 }

// codeWidth returns the bytes per code of a column that holds codes in
// [0, n).
func codeWidth(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	default:
		return 4
	}
}

// Len returns the number of rows.
func (c Codes) Len() int {
	switch {
	case c.u8 != nil:
		return len(c.u8)
	case c.u16 != nil:
		return len(c.u16)
	default:
		return len(c.u32)
	}
}

// Width returns the bytes one code occupies: 1, 2 or 4.
func (c Codes) Width() int {
	switch {
	case c.u8 != nil:
		return 1
	case c.u16 != nil:
		return 2
	default:
		return 4
	}
}

// sizeBytes returns the bytes the column stores.
func (c Codes) sizeBytes() int64 { return int64(c.Len()) * int64(c.Width()) }

// top returns the largest code the column's width can hold.
func (c Codes) top() uint32 { return uint32(1)<<(8*c.Width()) - 1 }

// At returns the code of row r.
func (c Codes) At(r int) uint32 {
	switch {
	case c.u8 != nil:
		return uint32(c.u8[r])
	case c.u16 != nil:
		return uint32(c.u16[r])
	default:
		return c.u32[r]
	}
}

// AppendTo appends every code of the column, widened, to dst.
func (c Codes) AppendTo(dst []uint32) []uint32 {
	switch {
	case c.u8 != nil:
		return appendWide(dst, c.u8)
	case c.u16 != nil:
		return appendWide(dst, c.u16)
	default:
		return append(dst, c.u32...)
	}
}

func appendWide[T code](dst []uint32, src []T) []uint32 {
	for _, v := range src {
		dst = append(dst, uint32(v))
	}
	return dst
}

// slice returns the view of rows [lo, hi), capacity clipped.
func (c Codes) slice(lo, hi int) Codes {
	switch {
	case c.u8 != nil:
		return Codes{u8: c.u8[lo:hi:hi]}
	case c.u16 != nil:
		return Codes{u16: c.u16[lo:hi:hi]}
	default:
		return Codes{u32: c.u32[lo:hi:hi]}
	}
}

// narrowed stores src[i]/div in a fresh column of the given width. Every
// quotient must fit it; the callers check that first.
func narrowed[S code](width int, src []S, div uint32) Codes {
	switch width {
	case 1:
		return Codes{u8: divided[uint8](src, div)}
	case 2:
		return Codes{u16: divided[uint16](src, div)}
	default:
		return Codes{u32: divided[uint32](src, div)}
	}
}

func divided[T, S code](src []S, div uint32) []T {
	dst := make([]T, len(src))
	if div&(div-1) == 0 {
		// A power of two — 1 for the finest level and for text codes, and
		// every roll-up ratio of PaperSchema: shift, a table build's
		// divisions are a tenth of its time.
		shift := bits.TrailingZeros32(div)
		for i, v := range src {
			dst[i] = T(v >> shift)
		}
		return dst
	}
	for i, v := range src {
		dst[i] = T(uint32(v) / div)
	}
	return dst
}

// rolledUp stores the column's codes divided by div in a fresh column of
// the given width, read at the column's own width.
func (c Codes) rolledUp(width int, div uint32) Codes {
	switch {
	case c.u8 != nil:
		return narrowed(width, c.u8, div)
	case c.u16 != nil:
		return narrowed(width, c.u16, div)
	default:
		return narrowed(width, c.u32, div)
	}
}

// finestColumn stores one dimension's finest-level coordinates, at the
// width the finest cardinality needs: the dimension's one stored column,
// every coarser level being derived from it (levelOf). It is the one place
// a coordinate becomes a stored column — FromColumns and Load both
// end here — and rejects a coordinate outside the finest cardinality.
func finestColumn(spec DimensionSpec, finest []uint32) (Codes, error) {
	card := spec.Levels[spec.Finest()].Cardinality
	for _, c := range finest {
		if int(c) >= card {
			return Codes{}, fmt.Errorf("table: dimension %q coordinate %d outside cardinality %d",
				spec.Name, c, card)
		}
	}
	return narrowed(codeWidth(card), finest, 1), nil
}

// levelCol is one dimension level, or a text column, as a view of a stored
// column: the code of row r is col.At(r) / div. A level's div is its
// fanout — the finest codes per code of the level, exact because every
// finer cardinality is a multiple of its parent's — and a text column's and
// a finest level's is 1. shift is log2(div) when div is a power of two
// (every fanout of PaperSchema), so a key gather shifts instead of
// dividing.
type levelCol struct {
	col   Codes
	div   uint32
	shift uint8
}

func viewOf(col Codes, div uint32) levelCol {
	return levelCol{col: col, div: div, shift: uint8(bits.TrailingZeros32(div))}
}

// at returns the level's code of row r.
func (v levelCol) at(r int) uint32 { return v.col.At(r) / v.div }

// fanout returns the finest codes per code of dimension d's level l.
func (s *Schema) fanout(d, l int) uint32 {
	dim := &s.Dimensions[d]
	return uint32(dim.Levels[dim.Finest()].Cardinality / dim.Levels[l].Cardinality)
}

// levelOf returns the view of dimension d's level l over its stored column.
func (t *FactTable) levelOf(d, l int) levelCol {
	return viewOf(t.dims[d], t.schema.fanout(d, l))
}

// textColumn stores a text column's codes at the width of the largest code
// it holds, and rejects a code its dictionary (of dictLen entries) does not
// define: such a code would scan as data, or narrow into another string's.
func textColumn(name string, codes []uint32, dictLen int) (Codes, error) {
	n := 0 // codes in use: the largest + 1
	for _, c := range codes {
		n = max(n, int(c)+1)
	}
	if n > dictLen {
		return Codes{}, fmt.Errorf("table: code %d exceeds dictionary of %d in %q", n-1, dictLen, name)
	}
	return narrowed(codeWidth(n), codes, 1), nil
}
