package cube

import (
	"math"
	"testing"

	"hybridolap/internal/table"
)

func incSchema() table.Schema {
	return table.Schema{
		Dimensions: []table.DimensionSpec{
			{Name: "a", Levels: []table.LevelSpec{
				{Name: "a0", Cardinality: 4}, {Name: "a1", Cardinality: 32}}},
			{Name: "b", Levels: []table.LevelSpec{
				{Name: "b0", Cardinality: 8}, {Name: "b1", Cardinality: 64}}},
		},
		Measures: []table.MeasureSpec{{Name: "m"}},
	}
}

func incTable(t *testing.T, rows int, seed int64) *table.FactTable {
	t.Helper()
	ft, err := table.Generate(table.GenSpec{Schema: incSchema(), Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// concatTables rebuilds one table holding the rows of both inputs in order.
func concatTables(t *testing.T, parts ...*table.FactTable) *table.FactTable {
	t.Helper()
	coords := make([][]uint32, 2)
	var units []int32
	for _, ft := range parts {
		for d := range coords {
			coords[d] = ft.DimLevelColumn(d, 1).AppendTo(coords[d])
		}
		units = append(units, ft.MeasureColumn(0)...)
	}
	return fromColumns(t, coords, units)
}

// fromColumns stores finest coordinates and measure units as an incSchema
// table.
func fromColumns(t *testing.T, coords [][]uint32, units []int32) *table.FactTable {
	t.Helper()
	ft, err := table.FromColumns(incSchema(), coords, [][]int32{units}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// cellsEqual compares two cubes cell by cell over the full grid.
func cellsEqual(t *testing.T, got, want *Cube) {
	t.Helper()
	if got.Rows() != want.Rows() || got.FilledCells() != want.FilledCells() {
		t.Fatalf("rows/filled: got (%d,%d), want (%d,%d)",
			got.Rows(), got.FilledCells(), want.Rows(), want.FilledCells())
	}
	coords := make([]uint32, len(want.Cards()))
	var walk func(d int)
	walk = func(d int) {
		if d == len(coords) {
			g, w := got.Get(coords), want.Get(coords)
			if g.Count != w.Count || math.Abs(g.Sum-w.Sum) > 1e-9 ||
				g.Min != w.Min || g.Max != w.Max {
				t.Fatalf("cell %v: got %+v, want %+v", coords, g, w)
			}
			return
		}
		for x := 0; x < want.Cards()[d]; x++ {
			coords[d] = uint32(x)
			walk(d + 1)
		}
	}
	walk(0)
}

func TestMergeCOWMatchesRebuild(t *testing.T) {
	base := incTable(t, 4000, 1)
	delta := incTable(t, 300, 2)
	whole := concatTables(t, base, delta)

	for _, level := range []int{0, 1} {
		cfg := Config{Workers: 1}
		bc, err := BuildFromTable(base, level, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := BuildFromTable(delta, level, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := bc.MergeCOW(dc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildFromTable(whole, level, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cellsEqual(t, merged, want)

		// The base cube is untouched by the merge.
		again, err := BuildFromTable(base, level, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cellsEqual(t, bc, again)
	}
}

func TestMergeCOWSharesUntouchedChunks(t *testing.T) {
	base := incTable(t, 4000, 3)
	bc, err := BuildFromTable(base, 1, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A single-row delta touches exactly one chunk.
	one := fromColumns(t, [][]uint32{{0}, {0}}, []int32{5})
	dc, err := BuildFromTable(one, 1, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := bc.MergeCOW(dc)
	if err != nil {
		t.Fatal(err)
	}
	shared, copied := 0, 0
	for i := range bc.chunks {
		if merged.chunks[i] == bc.chunks[i] {
			shared++
		} else {
			copied++
		}
	}
	if copied != 1 {
		t.Fatalf("copied %d chunks, want exactly 1 (shared %d)", copied, shared)
	}
	if shared == 0 {
		t.Fatal("expected untouched chunks to be shared by pointer")
	}
}

func TestSetMergeCOW(t *testing.T) {
	base := incTable(t, 3000, 4)
	delta := incTable(t, 200, 5)
	whole := concatTables(t, base, delta)

	s, err := BuildSet(base, []int{0, 1}, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddVirtual(3); err != nil {
		t.Fatal(err)
	}
	shadows, err := s.ShadowFromTable(delta, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(shadows) != 2 {
		t.Fatalf("shadows = %d levels, want 2 (virtual level needs none)", len(shadows))
	}
	merged, err := s.MergeCOW(shadows)
	if err != nil {
		t.Fatal(err)
	}
	wantSet, err := BuildSet(whole, []int{0, 1}, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, 1} {
		got, _ := merged.Get(l)
		want, _ := wantSet.Get(l)
		cellsEqual(t, got, want)
	}
	if !merged.IsVirtual(3) {
		t.Fatal("virtual level lost in COW merge")
	}
	// Unshadowed merge carries cubes over by pointer.
	carry, err := s.MergeCOW(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, 1} {
		a, _ := s.Get(l)
		b, _ := carry.Get(l)
		if a != b {
			t.Fatalf("level %d: expected pointer carry-over", l)
		}
	}
	// Shadow at an unregistered level is an error.
	bogus, err := BuildFromTable(delta, 0, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MergeCOW(map[int]*Cube{2: bogus}); err == nil {
		t.Fatal("expected error for shadow at unregistered level")
	}
}
