package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hybridolap/internal/dict"
)

func smallSchema() Schema {
	return Schema{
		Dimensions: []DimensionSpec{
			{Name: "time", Levels: []LevelSpec{
				{Name: "year", Cardinality: 2},
				{Name: "month", Cardinality: 24},
			}},
			{Name: "geo", Levels: []LevelSpec{
				{Name: "region", Cardinality: 4},
			}},
		},
		Measures: []MeasureSpec{{Name: "sales"}},
		Texts:    []TextSpec{{Name: "city"}},
	}
}

func TestSchemaValidate(t *testing.T) {
	s := smallSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []Schema{
		{}, // no dimensions
		{Dimensions: []DimensionSpec{{Name: "d"}}},                                                                                                                   // no levels
		{Dimensions: []DimensionSpec{{Name: "d", Levels: []LevelSpec{{Name: "l", Cardinality: 0}}}}},                                                                 // zero card
		{Dimensions: []DimensionSpec{{Name: "d", Levels: []LevelSpec{{Name: "a", Cardinality: 4}, {Name: "b", Cardinality: 2}}}}},                                    // fine < coarse
		{Dimensions: []DimensionSpec{{Name: "d", Levels: []LevelSpec{{Name: "a", Cardinality: 4}, {Name: "b", Cardinality: 6}}}}},                                    // not multiple
		{Dimensions: []DimensionSpec{{Name: "d", Levels: []LevelSpec{{Name: "l", Cardinality: 2}}}, {Name: "d", Levels: []LevelSpec{{Name: "l2", Cardinality: 2}}}}}, // dup dim
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestSchemaColumnCounts(t *testing.T) {
	s := smallSchema()
	if got := s.NumDimensionColumns(); got != 3 {
		t.Fatalf("NumDimensionColumns = %d, want 3", got)
	}
	if got := s.TotalColumns(); got != 5 { // 3 dim-level + 1 measure + 1 text
		t.Fatalf("TotalColumns = %d, want 5", got)
	}
	if s.DimIndex("geo") != 1 || s.DimIndex("nope") != -1 {
		t.Fatal("DimIndex wrong")
	}
	if s.MeasureIndex("sales") != 0 || s.MeasureIndex("nope") != -1 {
		t.Fatal("MeasureIndex wrong")
	}
	if s.TextIndex("city") != 0 || s.TextIndex("nope") != -1 {
		t.Fatal("TextIndex wrong")
	}
}

func TestBuilderRollup(t *testing.T) {
	b, err := NewBuilder(smallSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Coords: []int{0, 0}, Measures: []float64{10}, Texts: []string{"boston"}},
		{Coords: []int{11, 1}, Measures: []float64{20}, Texts: []string{"austin"}},
		{Coords: []int{12, 2}, Measures: []float64{30}, Texts: []string{"boston"}},
		{Coords: []int{23, 3}, Measures: []float64{40}, Texts: []string{"chicago"}},
	}
	for _, r := range rows {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ft, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ft.Rows() != 4 {
		t.Fatalf("Rows = %d", ft.Rows())
	}
	// month 0,11 -> year 0; month 12,23 -> year 1 (ratio 24/2 = 12).
	years := ft.DimLevelColumn(0, 0).AppendTo(nil)
	want := []uint32{0, 0, 1, 1}
	for i := range want {
		if years[i] != want[i] {
			t.Fatalf("year column %v, want %v", years, want)
		}
	}
	months := ft.DimLevelColumn(0, 1).AppendTo(nil)
	if months[1] != 11 || months[3] != 23 {
		t.Fatalf("month column %v", months)
	}
	// Text codes: austin=0, boston=1, chicago=2 (sorted assignment).
	codes := ft.TextColumn(0).AppendTo(nil)
	wantCodes := []uint32{1, 0, 1, 2}
	for i := range wantCodes {
		if codes[i] != wantCodes[i] {
			t.Fatalf("text codes %v, want %v", codes, wantCodes)
		}
	}
	if d, ok := ft.Dicts().Get("city"); !ok || d.Len() != 3 {
		t.Fatal("city dictionary missing or wrong size")
	}
}

func TestBuilderRejectsBadRows(t *testing.T) {
	b, _ := NewBuilder(smallSchema())
	cases := []Row{
		{Coords: []int{0}, Measures: []float64{1}, Texts: []string{"x"}},     // short coords
		{Coords: []int{0, 0}, Measures: nil, Texts: []string{"x"}},           // short measures
		{Coords: []int{0, 0}, Measures: []float64{1}, Texts: nil},            // short texts
		{Coords: []int{24, 0}, Measures: []float64{1}, Texts: []string{"x"}}, // coord out of range
		{Coords: []int{-1, 0}, Measures: []float64{1}, Texts: []string{"x"}}, // negative coord
	}
	for i, r := range cases {
		if err := b.Append(r); err == nil {
			t.Errorf("bad row %d accepted", i)
		}
	}
	if b.Rows() != 0 {
		t.Fatalf("builder recorded %d rows from rejected appends", b.Rows())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Schema: smallSchema(), Rows: 500, Seed: 99}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 500 || b.Rows() != 500 {
		t.Fatal("wrong row counts")
	}
	for r := 0; r < a.Rows(); r++ {
		if a.CoordAt(r, 0, 1) != b.CoordAt(r, 0, 1) || a.MeasureColumn(0)[r] != b.MeasureColumn(0)[r] {
			t.Fatalf("generation not deterministic at row %d", r)
		}
	}
}

// TestGenerateMatchesBuilder pins the column-at-a-time generator to the
// row-at-a-time reference: replaying Generate's draws row by row through
// Builder.Append builds the same columns, at the same widths, and the same
// dictionaries, and no generated column carries spare capacity.
func TestGenerateMatchesBuilder(t *testing.T) {
	pools := [][]string{{"oslo", "lima", "oslo", "baku"}, nil}
	for _, spec := range []GenSpec{
		{Schema: PaperSchema(), Rows: 3001, Seed: 7},
		{Schema: PaperSchema(), Rows: 500, Seed: 2, TextPools: pools, MeasureMax: 3},
		{Schema: smallSchema(), Rows: 0, Seed: 1},
	} {
		grown, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		plain := generateRows(t, spec)
		if grown.Rows() != spec.Rows || plain.Rows() != spec.Rows {
			t.Fatalf("rows: generated %d, appended %d, want %d", grown.Rows(), plain.Rows(), spec.Rows)
		}
		codes := func(name string, g, p Codes) {
			t.Helper()
			if g.Width() != p.Width() || !slices.Equal(g.AppendTo(nil), p.AppendTo(nil)) {
				t.Fatalf("%s differs from the row-built table", name)
			}
			if c := cap(g.u8) + cap(g.u16) + cap(g.u32); c != g.Len() {
				t.Fatalf("%s: cap %d != len %d", name, c, g.Len())
			}
		}
		sc := grown.Schema()
		for d, dim := range sc.Dimensions {
			for l := range dim.Levels {
				codes(dim.Name+"."+dim.Levels[l].Name, grown.DimLevelColumn(d, l), plain.DimLevelColumn(d, l))
			}
		}
		for m, ms := range sc.Measures {
			g, p := grown.MeasureColumn(m), plain.MeasureColumn(m)
			for r := range g {
				if math.Float64bits(g[r]) != math.Float64bits(p[r]) {
					t.Fatalf("measure %s row %d differs from the row-built table", ms.Name, r)
				}
			}
			if len(g) != len(p) || cap(g) != len(g) {
				t.Fatalf("measure %s: len %d/%d cap %d", ms.Name, len(g), len(p), cap(g))
			}
		}
		for i, ts := range sc.Texts {
			codes(ts.Name, grown.TextColumn(i), plain.TextColumn(i))
			n := grown.Dicts().DictLen(ts.Name)
			if n != plain.Dicts().DictLen(ts.Name) || (n == 0) != (spec.Rows == 0) {
				t.Fatalf("dictionary %s: %d vs %d entries", ts.Name, n, plain.Dicts().DictLen(ts.Name))
			}
			for id := 0; id < n; id++ {
				gs, err := grown.Dicts().Decode(ts.Name, dict.ID(id))
				if err != nil {
					t.Fatal(err)
				}
				ps, err := plain.Dicts().Decode(ts.Name, dict.ID(id))
				if err != nil {
					t.Fatal(err)
				}
				if gs != ps {
					t.Fatalf("dictionary %s id %d: %q vs %q", ts.Name, id, gs, ps)
				}
			}
		}
	}
}

// generateRows is the row-at-a-time reference for Generate: the same
// draws in the same order, each row appended to a Builder.
func generateRows(t *testing.T, spec GenSpec) *FactTable {
	t.Helper()
	b, err := NewBuilder(spec.Schema)
	if err != nil {
		t.Fatal(err)
	}
	max := spec.MeasureMax
	if max <= 0 {
		max = 1000
	}
	pools := make([][]string, len(spec.Schema.Texts))
	for i, ts := range spec.Schema.Texts {
		if spec.TextPools != nil {
			pools[i] = spec.TextPools[i]
		}
		if len(pools[i]) == 0 {
			for j := 0; j < DefaultPoolSize; j++ {
				pools[i] = append(pools[i], fmt.Sprintf("%s-%06d", ts.Name, j))
			}
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for r := 0; r < spec.Rows; r++ {
		row := Row{}
		for _, dim := range spec.Schema.Dimensions {
			row.Coords = append(row.Coords, rng.Intn(dim.Levels[dim.Finest()].Cardinality))
		}
		for range spec.Schema.Measures {
			row.Measures = append(row.Measures, rng.Float64()*max)
		}
		for _, pool := range pools {
			row.Texts = append(row.Texts, pool[rng.Intn(len(pool))])
		}
		if err := b.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	ft, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestGenerateTooFewPools: a spec with fewer text pools than text columns
// is an error that names the first column without one, not a panic.
func TestGenerateTooFewPools(t *testing.T) {
	_, err := Generate(GenSpec{Schema: PaperSchema(), Rows: 10, TextPools: [][]string{{"a", "b"}}})
	if err == nil || !strings.Contains(err.Error(), `"customer_city"`) {
		t.Fatalf("err = %v, want one naming customer_city", err)
	}
}

func TestGenerateHierarchyConsistency(t *testing.T) {
	ft, err := Generate(GenSpec{Schema: PaperSchema(), Rows: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := ft.Schema()
	for d, dim := range s.Dimensions {
		finest := dim.Finest()
		for l := 0; l < finest; l++ {
			ratio := uint32(dim.Levels[finest].Cardinality / dim.Levels[l].Cardinality)
			for r := 0; r < ft.Rows(); r++ {
				if ft.CoordAt(r, d, l) != ft.CoordAt(r, d, finest)/ratio {
					t.Fatalf("dim %d level %d row %d: rollup inconsistent", d, l, r)
				}
			}
		}
	}
}

// TestSizeBytes is the footprint floor: SizeBytes is the bytes the columns
// actually store — one finest-level column per dimension, coarser levels
// derived — and the paper's schema stores at most 27 of them a row (three
// finest columns of two bytes, two text columns of two, two float64
// measures: 26).
func TestSizeBytes(t *testing.T) {
	ft, err := Generate(GenSpec{Schema: PaperSchema(), Rows: 100_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for d, dim := range ft.Schema().Dimensions {
		c := ft.DimLevelColumn(d, dim.Finest())
		stored += int64(c.Len() * c.Width())
	}
	for x := range ft.Schema().Texts {
		c := ft.TextColumn(x)
		stored += int64(c.Len() * c.Width())
	}
	for m := range ft.Schema().Measures {
		stored += int64(len(ft.MeasureColumn(m)) * 8)
	}
	if got := ft.SizeBytes(); got != stored {
		t.Fatalf("SizeBytes = %d, columns store %d", got, stored)
	}
	if perRow := float64(stored) / float64(ft.Rows()); perRow > 27 {
		t.Fatalf("PaperSchema stores %.1f B/row, want <= 27", perRow)
	}
	half, err := Slice(ft, 0, ft.Rows()/2)
	if err != nil {
		t.Fatal(err)
	}
	if got := half.SizeBytes(); got != stored/2 {
		t.Fatalf("half-table view SizeBytes = %d, want %d", got, stored/2)
	}
}

func TestScanSumAndCount(t *testing.T) {
	b, _ := NewBuilder(smallSchema())
	data := []struct {
		month, region int
		sales         float64
		city          string
	}{
		{0, 0, 10, "a"}, {5, 1, 20, "b"}, {12, 2, 30, "a"}, {23, 3, 40, "c"},
	}
	for _, d := range data {
		if err := b.Append(Row{Coords: []int{d.month, d.region}, Measures: []float64{d.sales}, Texts: []string{d.city}}); err != nil {
			t.Fatal(err)
		}
	}
	ft, _ := b.Build()

	// Sum of sales for year == 0 (months 0..11): rows 0 and 1.
	req := ScanRequest{
		Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 0}},
		Measure:    0, Op: AggSum,
	}
	res, err := Scan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 30 || res.Rows != 2 {
		t.Fatalf("sum = (%v,%d), want (30,2)", res.Value, res.Rows)
	}

	// Count with no predicates = all rows.
	res, err = Scan(ft, ScanRequest{Op: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 || res.Rows != 4 {
		t.Fatalf("count = (%v,%d), want (4,4)", res.Value, res.Rows)
	}

	// Text predicate: city == "a" (code 0).
	res, err = Scan(ft, ScanRequest{
		Predicates: []RangePredicate{{Text: true, TextIndex: 0, From: 0, To: 0}},
		Measure:    0, Op: AggSum,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 40 || res.Rows != 2 {
		t.Fatalf("text sum = (%v,%d), want (40,2)", res.Value, res.Rows)
	}
}

func TestScanMinMaxAvg(t *testing.T) {
	b, _ := NewBuilder(smallSchema())
	for i, v := range []float64{5, 1, 9, 3} {
		if err := b.Append(Row{Coords: []int{i, 0}, Measures: []float64{v}, Texts: []string{"x"}}); err != nil {
			t.Fatal(err)
		}
	}
	ft, _ := b.Build()
	for _, c := range []struct {
		op   AggOp
		want float64
	}{{AggMin, 1}, {AggMax, 9}, {AggAvg, 4.5}, {AggSum, 18}} {
		res, err := Scan(ft, ScanRequest{Measure: 0, Op: c.op})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-c.want) > 1e-12 {
			t.Errorf("%v = %v, want %v", c.op, res.Value, c.want)
		}
	}
}

func TestScanEmptySelection(t *testing.T) {
	ft, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 50, Seed: 3})
	res, err := Scan(ft, ScanRequest{
		Predicates: []RangePredicate{{Dim: 0, Level: 1, From: 100, To: 200}}, // beyond cardinality
		Measure:    0, Op: AggMin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 || res.Value != 0 {
		t.Fatalf("empty selection = (%v,%d)", res.Value, res.Rows)
	}
}

func TestScanErrors(t *testing.T) {
	ft, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 10, Seed: 3})
	cases := []ScanRequest{
		{Measure: 5, Op: AggSum},
		{Predicates: []RangePredicate{{Dim: 9, Level: 0}}, Op: AggCount},
		{Predicates: []RangePredicate{{Dim: 0, Level: 9}}, Op: AggCount},
		{Predicates: []RangePredicate{{Text: true, TextIndex: 9}}, Op: AggCount},
	}
	for i, req := range cases {
		if _, err := Scan(ft, req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if _, err := ScanRange(ft, ScanRequest{Op: AggCount}, 5, 2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := ScanRange(ft, ScanRequest{Op: AggCount}, 0, 99); err == nil {
		t.Error("out-of-bounds range accepted")
	}
}

// Property: splitting a scan into stripes and merging equals the full scan,
// for every op. This is the invariant the GPU simulator's parallel
// reduction relies on.
func TestMergeEquivalenceProperty(t *testing.T) {
	ft, err := Generate(GenSpec{Schema: PaperSchema(), Rows: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	f := func(fromRaw, widthRaw uint16, opRaw uint8, split uint8) bool {
		op := AggOp(int(opRaw) % 5)
		card := uint32(ft.Schema().LevelCardinality(0, 1))
		from := uint32(fromRaw) % card
		to := from + uint32(widthRaw)%card
		req := ScanRequest{
			Predicates: []RangePredicate{{Dim: 0, Level: 1, From: from, To: to}},
			Measure:    0, Op: op,
		}
		whole, err := Scan(ft, req)
		if err != nil {
			return false
		}
		n := int(split)%7 + 2
		var acc ScanResult
		stripe := (ft.Rows() + n - 1) / n
		for lo := 0; lo < ft.Rows(); lo += stripe {
			hi := lo + stripe
			if hi > ft.Rows() {
				hi = ft.Rows()
			}
			part, err := ScanRange(ft, req, lo, hi)
			if err != nil {
				return false
			}
			acc = Merge(op, acc, part)
		}
		acc = Finalize(op, acc)
		return acc.Rows == whole.Rows && math.Abs(acc.Value-whole.Value) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnsAccessed(t *testing.T) {
	req := ScanRequest{
		Predicates: []RangePredicate{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}},
		Op:         AggSum,
	}
	if got := req.ColumnsAccessed(); got != 3 {
		t.Fatalf("ColumnsAccessed = %d, want 3 (2 filters + 1 measure)", got)
	}
	req.Op = AggCount
	if got := req.ColumnsAccessed(); got != 2 {
		t.Fatalf("count ColumnsAccessed = %d, want 2", got)
	}
}

func TestAggOpString(t *testing.T) {
	for op, want := range map[AggOp]string{AggSum: "sum", AggCount: "count", AggMin: "min", AggMax: "max", AggAvg: "avg"} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", int(op), op.String())
		}
	}
}

func BenchmarkScan1M(b *testing.B) {
	ft, err := Generate(GenSpec{Schema: PaperSchema(), Rows: 1_000_000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	req := ScanRequest{
		Predicates: []RangePredicate{
			{Dim: 0, Level: 1, From: 0, To: 23},
			{Dim: 1, Level: 0, From: 0, To: 3},
		},
		Measure: 0, Op: AggSum,
	}
	b.SetBytes(int64(12 * ft.Rows())) // two code columns + one measure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(ft, req); err != nil {
			b.Fatal(err)
		}
	}
}
