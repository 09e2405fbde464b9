package cube

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridolap/internal/table"
)

func testSchema() table.Schema {
	return table.Schema{
		Dimensions: []table.DimensionSpec{
			{Name: "time", Levels: []table.LevelSpec{
				{Name: "year", Cardinality: 3},
				{Name: "month", Cardinality: 36},
			}},
			{Name: "geo", Levels: []table.LevelSpec{
				{Name: "region", Cardinality: 5},
				{Name: "city", Cardinality: 50},
			}},
		},
		Measures: []table.MeasureSpec{{Name: "sales"}},
	}
}

func genTable(t testing.TB, rows int, seed int64) *table.FactTable {
	t.Helper()
	ft, err := table.Generate(table.GenSpec{Schema: testSchema(), Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// bruteAgg computes the expected aggregate directly from fact rows.
func bruteAgg(ft *table.FactTable, level int, box Box) Agg {
	var acc Agg
	s := ft.Schema()
	meas := ft.MeasureColumn(0)
	for r := 0; r < ft.Rows(); r++ {
		in := true
		for d := range s.Dimensions {
			l := level
			if l > s.Dimensions[d].Finest() {
				l = s.Dimensions[d].Finest()
			}
			x := ft.CoordAt(r, d, l)
			if x < box[d].From || x > box[d].To {
				in = false
				break
			}
		}
		if in {
			var c Cell
			c.add(meas[r])
			acc.fold(c)
		}
	}
	return acc
}

func aggEqual(a, b Agg) bool {
	if a.Count != b.Count {
		return false
	}
	if a.Count == 0 {
		return true
	}
	return math.Abs(a.Sum-b.Sum) < 1e-6 && a.Min == b.Min && a.Max == b.Max
}

func TestBuildFromTableCellsMatchBruteForce(t *testing.T) {
	ft := genTable(t, 2000, 1)
	c, err := BuildFromTable(ft, 1, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 2000 {
		t.Fatalf("Rows = %d", c.Rows())
	}
	// Spot-check every cell against a brute-force pass.
	for m := uint32(0); m < 36; m += 7 {
		for g := uint32(0); g < 50; g += 11 {
			cell := c.Get([]uint32{m, g})
			want := bruteAgg(ft, 1, Box{{m, m}, {g, g}})
			got := Agg{Sum: cell.Sum, Count: cell.Count, Min: cell.Min, Max: cell.Max}
			if !aggEqual(got, want) {
				t.Fatalf("cell (%d,%d): got %+v want %+v", m, g, got, want)
			}
		}
	}
}

func TestParallelBuildEqualsSequential(t *testing.T) {
	ft := genTable(t, 5000, 2)
	seq, err := BuildFromTable(ft, 1, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildFromTable(ft, 1, 0, Config{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if seq.FilledCells() != par.FilledCells() || seq.Rows() != par.Rows() {
		t.Fatalf("filled/rows mismatch: seq (%d,%d) par (%d,%d)",
			seq.FilledCells(), seq.Rows(), par.FilledCells(), par.Rows())
	}
	full := Box{{0, 35}, {0, 49}}
	a, err := seq.Aggregate(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Aggregate(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !aggEqual(a, b) {
		t.Fatalf("aggregate mismatch: %+v vs %+v", a, b)
	}
}

func TestAggregateMatchesBruteForce(t *testing.T) {
	ft := genTable(t, 3000, 3)
	c, err := BuildFromTable(ft, 1, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		f1 := uint32(rng.Intn(36))
		t1 := f1 + uint32(rng.Intn(36-int(f1)))
		f2 := uint32(rng.Intn(50))
		t2 := f2 + uint32(rng.Intn(50-int(f2)))
		box := Box{{f1, t1}, {f2, t2}}
		got, err := c.Aggregate(box, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteAgg(ft, 1, box)
		if !aggEqual(got, want) {
			t.Fatalf("trial %d box %v: got %+v want %+v", trial, box, got, want)
		}
	}
}

func TestAggregateParallelEqualsSequential(t *testing.T) {
	ft := genTable(t, 4000, 5)
	c, err := BuildFromTable(ft, 1, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	box := Box{{3, 30}, {5, 45}}
	seq, err := c.Aggregate(box, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8, 16} {
		par, err := c.Aggregate(box, w)
		if err != nil {
			t.Fatal(err)
		}
		if !aggEqual(seq, par) {
			t.Fatalf("workers=%d: %+v vs %+v", w, par, seq)
		}
	}
}

func TestAggregateValidation(t *testing.T) {
	ft := genTable(t, 100, 6)
	c, _ := BuildFromTable(ft, 0, 0, Config{})
	if _, err := c.Aggregate(Box{{0, 2}}, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := c.Aggregate(Box{{2, 1}, {0, 0}}, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := c.Aggregate(Box{{0, 99}, {0, 0}}, 1); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	// A very sparse cube: every chunk should compress, and lookups and
	// aggregates must be unchanged.
	cards := []int{40, 40}
	c, err := newCube(0, cards, 16)
	if err != nil {
		t.Fatal(err)
	}
	pts := [][2]uint32{{0, 0}, {5, 7}, {17, 33}, {39, 39}, {20, 20}}
	for i, p := range pts {
		c.add([]uint32{p[0], p[1]}, int32(i+1))
	}
	before := make([]Cell, len(pts))
	for i, p := range pts {
		before[i] = c.Get([]uint32{p[0], p[1]})
	}
	c.compressAll()
	// All chunks must now be compressed (fill << 40%).
	for _, ch := range c.chunks {
		if ch != nil && ch.isDense() {
			t.Fatal("sparse chunk left dense after compressAll")
		}
	}
	for i, p := range pts {
		if got := c.Get([]uint32{p[0], p[1]}); got != before[i] {
			t.Fatalf("point %v changed by compression: %+v vs %+v", p, got, before[i])
		}
	}
	agg, err := c.Aggregate(Box{{0, 39}, {0, 39}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != int64(len(pts)) || agg.Sum != 15 || agg.Min != 1 || agg.Max != 5 {
		t.Fatalf("aggregate over compressed cube: %+v", agg)
	}
	// Partial box over a compressed chunk exercises offset decoding.
	agg, err = c.Aggregate(Box{{4, 18}, {6, 34}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 2 || agg.Sum != 2+3 {
		t.Fatalf("partial compressed aggregate: %+v", agg)
	}
	if c.StorageBytes() >= c.LogicalBytes() {
		t.Fatalf("compression did not shrink storage: %d vs %d", c.StorageBytes(), c.LogicalBytes())
	}
}

// TestBuildSyntheticInjectedRng checks that an injected Config.Rng seeded
// S builds the same cube as the seed argument S with a nil Rng: the two
// configuration styles are interchangeable without losing bit-level
// reproducibility.
func TestBuildSyntheticInjectedRng(t *testing.T) {
	seeded, err := BuildSynthetic(0, []int{32, 32}, 0.4, 9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	injected, err := BuildSynthetic(0, []int{32, 32}, 0.4, 0, Config{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.FilledCells() != injected.FilledCells() {
		t.Fatalf("filled cells diverged: %d vs %d", seeded.FilledCells(), injected.FilledCells())
	}
	coords := []uint32{0, 0}
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 32; y++ {
			coords[0], coords[1] = x, y
			a, b := seeded.Get(coords), injected.Get(coords)
			if a != b {
				t.Fatalf("cell (%d,%d) diverged: %+v vs %+v", x, y, a, b)
			}
		}
	}
}

func TestDenseChunksStayDense(t *testing.T) {
	// A fully filled cube must keep dense chunks (fill = 100% > 40%).
	c, err := BuildSynthetic(0, []int{16, 16}, 1.0, 1, Config{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range c.chunks {
		if ch != nil && !ch.isDense() {
			t.Fatal("full chunk was compressed")
		}
	}
	if c.FillFactor() != 1.0 {
		t.Fatalf("FillFactor = %v", c.FillFactor())
	}
}

func TestEdgeChunks(t *testing.T) {
	// Cards not a multiple of the chunk side: 20 with side 16 leaves a
	// 4-wide edge chunk. Aggregates must still be exact.
	cards := []int{20, 20}
	c, _ := newCube(0, cards, 16)
	var wantSum float64
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			v := int32(x*100 + y)
			c.add([]uint32{uint32(x), uint32(y)}, v)
			wantSum += float64(v)
		}
	}
	agg, err := c.Aggregate(Box{{0, 19}, {0, 19}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 400 || agg.Sum != wantSum {
		t.Fatalf("edge aggregate: %+v, want count 400 sum %v", agg, wantSum)
	}
	// Box straddling the edge chunk boundary.
	agg, _ = c.Aggregate(Box{{15, 19}, {14, 17}}, 1)
	if agg.Count != 5*4 {
		t.Fatalf("straddling box count = %d, want 20", agg.Count)
	}
}

func TestSyntheticFillFactor(t *testing.T) {
	c, err := BuildSynthetic(0, []int{64, 64}, 0.3, 7, Config{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	ff := c.FillFactor()
	if ff < 0.25 || ff > 0.35 {
		t.Fatalf("FillFactor = %v, want ~0.3", ff)
	}
}

func TestAggMerge(t *testing.T) {
	var a, b Agg
	var c1, c2 Cell
	c1.add(10)
	c1.add(20)
	c2.add(5)
	a.fold(c1)
	b.fold(c2)
	m := a.Merge(b)
	if m.Sum != 35 || m.Count != 3 || m.Min != 5 || m.Max != 20 {
		t.Fatalf("merge = %+v", m)
	}
	if got := (Agg{}).Merge(m); got != m {
		t.Fatalf("empty merge = %+v", got)
	}
	if got := m.Merge(Agg{}); got != m {
		t.Fatalf("merge empty = %+v", got)
	}
}

func TestBoxGeometry(t *testing.T) {
	b := Box{{0, 9}, {5, 5}}
	if b.Cells() != 10 {
		t.Fatalf("Cells = %d", b.Cells())
	}
	if b.Bytes() != 10*CellSize {
		t.Fatalf("Bytes = %d", b.Bytes())
	}
	if (Range{5, 2}).Width() != 0 {
		t.Fatal("inverted range width should be 0")
	}
}

func TestSetPickAndAggregate(t *testing.T) {
	ft := genTable(t, 3000, 8)
	set, err := BuildSet(ft, []int{0, 1}, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Levels(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Levels = %v", got)
	}
	// R=0 should pick the coarse cube (level 0).
	l, ok := set.PickLevel(0)
	if !ok || l != 0 {
		t.Fatalf("PickLevel(0) = %d", l)
	}
	// R=1 picks level 1.
	l, ok = set.PickLevel(1)
	if !ok || l != 1 {
		t.Fatalf("PickLevel(1) = %d", l)
	}
	// R=2 is too fine: must go to GPU.
	if _, ok = set.PickLevel(2); ok {
		t.Fatal("PickLevel(2) should fail")
	}

	// A level-0 query answered via the set must equal brute force.
	box := Box{{0, 1}, {1, 3}}
	agg, used, err := set.Aggregate(box, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if used.Level() != 0 {
		t.Fatalf("used cube level %d, want 0", used.Level())
	}
	want := bruteAgg(ft, 0, box)
	if !aggEqual(agg, want) {
		t.Fatalf("set aggregate %+v, want %+v", agg, want)
	}
}

func TestSetAnswersCoarseQueryFromFineCube(t *testing.T) {
	// Remove the level-0 cube so a level-0 query must expand into level 1.
	ft := genTable(t, 3000, 9)
	set, err := BuildSet(ft, []int{1}, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	box := Box{{0, 1}, {2, 4}} // level-0 coords: years 0-1, regions 2-4
	agg, used, err := set.Aggregate(box, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if used.Level() != 1 {
		t.Fatalf("used level %d, want 1", used.Level())
	}
	want := bruteAgg(ft, 0, box)
	if !aggEqual(agg, want) {
		t.Fatalf("expanded aggregate %+v, want %+v", agg, want)
	}
}

func TestExpandBox(t *testing.T) {
	ft := genTable(t, 10, 10)
	set, _ := BuildSet(ft, []int{1}, 0, Config{})
	// time: year->month ratio 12; geo: region->city ratio 10.
	eb, err := set.ExpandBox(Box{{1, 2}, {0, 0}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eb[0].From != 12 || eb[0].To != 35 || eb[1].From != 0 || eb[1].To != 9 {
		t.Fatalf("ExpandBox = %v", eb)
	}
	// Cannot answer fine query at a coarser level.
	if _, err := set.ExpandBox(Box{{0, 0}, {0, 0}}, 1, 0); err == nil {
		t.Fatal("coarse level accepted fine query")
	}
	// Dimension-count mismatch.
	if _, err := set.ExpandBox(Box{{0, 0}}, 0, 1); err == nil {
		t.Fatal("short box accepted")
	}
}

func TestVirtualLevels(t *testing.T) {
	ft := genTable(t, 500, 21)
	set, err := BuildSet(ft, []int{0}, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.AddVirtual(1); err != nil {
		t.Fatal(err)
	}
	if err := set.AddVirtual(-1); err == nil {
		t.Fatal("negative virtual level accepted")
	}
	if !set.IsVirtual(1) || set.IsVirtual(0) {
		t.Fatal("IsVirtual wrong")
	}
	if got := set.Levels(); len(got) != 2 || got[1] != 1 {
		t.Fatalf("Levels = %v", got)
	}
	// Size estimation works on the virtual level.
	n, ok := set.SubCubeBytes(Box{{0, 0}, {0, 4}}, 1) // 1 month x 5 cities at level 1
	if !ok || n != 5*CellSize {
		t.Fatalf("virtual SubCubeBytes = (%d,%v)", n, ok)
	}
	// Aggregation on the virtual level fails with a clear error.
	if _, _, err := set.Aggregate(Box{{0, 0}, {0, 0}}, 1, 1); err == nil {
		t.Fatal("aggregate on virtual level accepted")
	}
	// Adding a real cube upgrades the virtual level.
	c1, _ := BuildFromTable(ft, 1, 0, Config{})
	if err := set.Add(c1); err != nil {
		t.Fatal(err)
	}
	if set.IsVirtual(1) {
		t.Fatal("level still virtual after Add")
	}
	if _, _, err := set.Aggregate(Box{{0, 0}, {0, 0}}, 1, 1); err != nil {
		t.Fatal(err)
	}
	// AddVirtual on a real level is a no-op.
	if err := set.AddVirtual(1); err != nil || set.IsVirtual(1) {
		t.Fatal("AddVirtual demoted a real level")
	}
}

func TestLogicalBytesAt(t *testing.T) {
	ft := genTable(t, 10, 22)
	set := NewSet(ft.Schema())
	// Level 0: 3 years x 5 regions = 15 cells.
	if got := set.LogicalBytesAt(0); got != 15*CellSize {
		t.Fatalf("LogicalBytesAt(0) = %d", got)
	}
	// Level 1: 36 x 50 = 1800 cells.
	if got := set.LogicalBytesAt(1); got != 1800*CellSize {
		t.Fatalf("LogicalBytesAt(1) = %d", got)
	}
}

func TestSubCubeBytes(t *testing.T) {
	ft := genTable(t, 10, 11)
	set, _ := BuildSet(ft, []int{0, 1}, 0, Config{})
	// Level-0 query 2x3 box answered at level 0: 6 cells.
	n, ok := set.SubCubeBytes(Box{{0, 1}, {0, 2}}, 0)
	if !ok || n != 6*CellSize {
		t.Fatalf("SubCubeBytes = (%d,%v)", n, ok)
	}
	// Level-2 query: no cube.
	if _, ok := set.SubCubeBytes(Box{{0, 0}, {0, 0}}, 2); ok {
		t.Fatal("SubCubeBytes for missing level should fail")
	}
}

func TestSetAddValidation(t *testing.T) {
	ft := genTable(t, 10, 12)
	set := NewSet(ft.Schema())
	// Wrong geometry: cube over different cards.
	c, _ := BuildSynthetic(0, []int{7, 7}, 1, 1, Config{})
	if err := set.Add(c); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	// Duplicate level replaces without growing Levels().
	c0, _ := BuildFromTable(ft, 0, 0, Config{})
	if err := set.Add(c0); err != nil {
		t.Fatal(err)
	}
	if err := set.Add(c0); err != nil {
		t.Fatal(err)
	}
	if len(set.Levels()) != 1 {
		t.Fatalf("Levels = %v", set.Levels())
	}
}

func TestLevelClampBeyondFinest(t *testing.T) {
	// Level 5 clamps to each dimension's finest level.
	ft := genTable(t, 500, 13)
	c, err := BuildFromTable(ft, 5, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cards()[0] != 36 || c.Cards()[1] != 50 {
		t.Fatalf("clamped cards = %v", c.Cards())
	}
}

// Property: random boxes over a cube built at any level match brute force.
func TestCubeBruteForceProperty(t *testing.T) {
	ft := genTable(t, 1500, 14)
	cubes := map[int]*Cube{}
	for _, l := range []int{0, 1} {
		c, err := BuildFromTable(ft, l, 0, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cubes[l] = c
	}
	f := func(lvl bool, a1, b1, a2, b2 uint16, workers uint8) bool {
		level := 0
		if lvl {
			level = 1
		}
		c := cubes[level]
		cards := c.Cards()
		norm := func(a, b uint16, card int) Range {
			f := uint32(a) % uint32(card)
			t := uint32(b) % uint32(card)
			if t < f {
				f, t = t, f
			}
			return Range{f, t}
		}
		box := Box{norm(a1, b1, cards[0]), norm(a2, b2, cards[1])}
		got, err := c.Aggregate(box, int(workers%5)+1)
		if err != nil {
			return false
		}
		return aggEqual(got, bruteAgg(ft, level, box))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAggregateSeq(b *testing.B) {
	c, err := BuildSynthetic(0, []int{256, 256, 64}, 0.9, 3, Config{Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	box := Box{{0, 255}, {0, 255}, {0, 63}}
	b.SetBytes(box.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Aggregate(box, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregatePar(b *testing.B) {
	c, err := BuildSynthetic(0, []int{256, 256, 64}, 0.9, 3, Config{Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	box := Box{{0, 255}, {0, 255}, {0, 63}}
	b.SetBytes(box.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Aggregate(box, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildFromTable1W(b *testing.B) {
	ft := genTable(b, 200_000, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFromTable(ft, 1, 0, Config{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ft.Rows()), "ns/row")
}

func BenchmarkBuildFromTable8W(b *testing.B) {
	ft := genTable(b, 200_000, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFromTable(ft, 1, 0, Config{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
