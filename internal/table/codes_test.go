package table

import (
	"fmt"
	"strings"
	"testing"

	"hybridolap/internal/dict"
)

// atWidth returns the same logical table with every code column stored at
// least width bytes wide: the hook that lets a test or benchmark run one
// table through all three kernel stencils, whatever its cardinalities.
func atWidth(ft *FactTable, width int) *FactTable {
	widen := func(c Codes) Codes { return narrowed(max(width, c.Width()), c.AppendTo(nil), 1) }
	out := *ft
	out.dims = nil
	for _, c := range ft.dims {
		out.dims = append(out.dims, widen(c))
	}
	out.texts = nil
	for _, c := range ft.texts {
		out.texts = append(out.texts, widen(c))
	}
	return &out
}

// rowsOf materialises rows [lo, hi) of whole as a table of its own through
// FromColumns, sharing whole's dictionaries: unlike a Slice view, its text
// columns take their width from the codes these rows hold.
func rowsOf(t testing.TB, whole *FactTable, lo, hi int) *FactTable {
	t.Helper()
	s := whole.Schema()
	coords := make([][]uint32, len(s.Dimensions))
	for d, spec := range s.Dimensions {
		coords[d] = whole.DimLevelColumn(d, spec.Finest()).AppendTo(nil)[lo:hi]
	}
	meas := make([][]int32, len(s.Measures))
	for m := range meas {
		meas[m] = whole.MeasureColumn(m)[lo:hi]
	}
	texts := make([][]uint32, len(s.Texts))
	for x := range texts {
		texts[x] = whole.TextColumn(x).AppendTo(nil)[lo:hi]
	}
	ft, err := FromColumns(*s, coords, meas, texts, whole.Dicts())
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestCodeWidths pins the width rule: a dimension level is stored in the
// bits its schema cardinality needs, a text column in the bits of the
// largest code the stripe holds — whichever constructor built it.
func TestCodeWidths(t *testing.T) {
	for _, tc := range []struct{ codes, width int }{
		{1, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 4},
	} {
		if got := codeWidth(tc.codes); got != tc.width {
			t.Errorf("codeWidth(%d) = %d, want %d", tc.codes, got, tc.width)
		}
	}

	ft, err := Generate(GenSpec{Schema: PaperSchema(), Rows: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for d, dim := range ft.Schema().Dimensions {
		for l, lv := range dim.Levels {
			if got, want := ft.DimLevelColumn(d, l).Width(), codeWidth(lv.Cardinality); got != want {
				t.Errorf("%s.%s (cardinality %d) stored %d bytes wide, want %d", dim.Name, lv.Name, lv.Cardinality, got, want)
			}
		}
	}
	// 1000 pool strings, 2000 draws: a few hundred distinct codes, all
	// used, so the width follows the dictionary.
	for x, ts := range ft.Schema().Texts {
		if got, want := ft.TextColumn(x).Width(), codeWidth(ft.Dicts().DictLen(ts.Name)); got != want {
			t.Errorf("%s stored %d bytes wide, want %d", ts.Name, got, want)
		}
	}

	// A stripe takes its text width from its own rows, not from the shared
	// dictionary: rows holding only codes below 256 store one byte.
	wide := ft.TextColumn(0).AppendTo(nil)
	lo := 0
	for lo < len(wide) && wide[lo] >= 256 {
		lo++
	}
	hi := lo
	for hi < len(wide) && wide[hi] < 256 {
		hi++
	}
	if hi == lo {
		t.Fatal("no run of small codes to cut a stripe from")
	}
	if got := rowsOf(t, ft, lo, hi).TextColumn(0).Width(); got != 1 {
		t.Errorf("stripe of codes < 256 stored %d bytes wide, want 1", got)
	}
	if got := rowsOf(t, ft, 0, ft.Rows()).TextColumn(0).Width(); got != 2 {
		t.Errorf("stripe of every code stored %d bytes wide, want 2", got)
	}
	for _, w := range []int{1, 2, 4} {
		forced := atWidth(ft, w)
		for r := 0; r < ft.Rows(); r += 97 {
			if forced.CoordAt(r, 2, 3) != ft.CoordAt(r, 2, 3) || forced.TextColumn(1).At(r) != ft.TextColumn(1).At(r) {
				t.Fatalf("atWidth(%d) changed row %d", w, r)
			}
		}
	}
}

// TestFromColumnsRejectsUndefinedCode: a text code its dictionary does not
// define must not become a stripe — it would scan as data, and a narrow
// column could truncate it into another string's code.
func TestFromColumnsRejectsUndefinedCode(t *testing.T) {
	d, err := dict.NewHash([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	dicts := dict.NewSet()
	dicts.Put("s", d)
	schema := Schema{
		Dimensions: []DimensionSpec{{Name: "d", Levels: []LevelSpec{{Name: "l", Cardinality: 4}}}},
		Measures:   []MeasureSpec{{Name: "m"}},
		Texts:      []TextSpec{{Name: "s"}},
	}
	build := func(codes ...uint32) error {
		_, err := FromColumns(schema, [][]uint32{make([]uint32, len(codes))},
			[][]int32{make([]int32, len(codes))}, [][]uint32{codes}, dicts)
		return err
	}
	if err := build(0, 2, 1); err != nil {
		t.Fatalf("defined codes rejected: %v", err)
	}
	for _, bad := range []uint32{3, 256 + 1, 1<<16 + 2} {
		err := build(0, bad, 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("code %d exceeds dictionary of 3", bad)) {
			t.Errorf("code %d of a 3-entry dictionary: err = %v", bad, err)
		}
	}
}
