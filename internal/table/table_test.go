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

// buildRows is the row-at-a-time builder the tests build small tables
// with: each row's finest coordinates, measure units and text strings in
// turn, every text column getting its Sorted dictionary (textDicts), then
// FromColumns. The rows must be well formed.
func buildRows(t *testing.T, s Schema, rows []Row) *FactTable {
	t.Helper()
	coords := make([][]uint32, len(s.Dimensions))
	measures := make([][]int32, len(s.Measures))
	texts := make([][]uint32, len(s.Texts))
	bldrs := make([]*dict.Builder, len(s.Texts))
	for i := range bldrs {
		bldrs[i] = dict.NewBuilder()
	}
	for _, r := range rows {
		for d, c := range r.Coords {
			coords[d] = append(coords[d], uint32(c))
		}
		for m, v := range r.Measures {
			u, err := Units(v, s.Measures[m].Scale)
			if err != nil {
				t.Fatal(err)
			}
			measures[m] = append(measures[m], u)
		}
		for i, str := range r.Texts {
			id, err := bldrs[i].Add(str)
			if err != nil {
				t.Fatal(err)
			}
			texts[i] = append(texts[i], uint32(id))
		}
	}
	dicts, err := textDicts(s.Texts, bldrs, texts)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := FromColumns(s, coords, measures, texts, dicts)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestBuilderRollup(t *testing.T) {
	ft := buildRows(t, smallSchema(), []Row{
		{Coords: []int{0, 0}, Measures: []float64{10}, Texts: []string{"boston"}},
		{Coords: []int{11, 1}, Measures: []float64{20}, Texts: []string{"austin"}},
		{Coords: []int{12, 2}, Measures: []float64{30}, Texts: []string{"boston"}},
		{Coords: []int{23, 3}, Measures: []float64{40}, Texts: []string{"chicago"}},
	})
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
// buildRows builds the same columns, at the same widths, and the same
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
				if g[r] != p[r] {
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
// draws in the same order, the rows built by buildRows.
func generateRows(t *testing.T, spec GenSpec) *FactTable {
	t.Helper()
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
	rows := make([]Row, spec.Rows)
	for r := range rows {
		row := &rows[r]
		for _, dim := range spec.Schema.Dimensions {
			row.Coords = append(row.Coords, rng.Intn(dim.Levels[dim.Finest()].Cardinality))
		}
		for _, ms := range spec.Schema.Measures {
			// The drawn value at its scale: the decimal Generate stores.
			unit := math.Pow10(ms.Scale)
			v := rng.Float64() * max
			row.Measures = append(row.Measures, math.Floor(v*unit)/unit)
		}
		for _, pool := range pools {
			row.Texts = append(row.Texts, pool[rng.Intn(len(pool))])
		}
	}
	return buildRows(t, spec.Schema, rows)
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
// derived — and the paper's schema stores 18 of them a row at 1M rows
// (three finest columns of two bytes, two text columns of two, two int32
// measures).
func TestSizeBytes(t *testing.T) {
	ft, err := Generate(GenSpec{Schema: PaperSchema(), Rows: 1_000_000, Seed: 1})
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
		col := ft.MeasureColumn(m)
		if cap(col) != ft.Rows() {
			t.Fatalf("measure %d: cap %d for %d rows", m, cap(col), ft.Rows())
		}
		stored += int64(len(col) * 4)
	}
	if got := ft.SizeBytes(); got != stored {
		t.Fatalf("SizeBytes = %d, columns store %d", got, stored)
	}
	if perRow := float64(stored) / float64(ft.Rows()); perRow != 18 {
		t.Fatalf("PaperSchema stores %.1f B/row, want 18", perRow)
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
	data := []struct {
		month, region int
		sales         float64
		city          string
	}{
		{0, 0, 10, "a"}, {5, 1, 20, "b"}, {12, 2, 30, "a"}, {23, 3, 40, "c"},
	}
	var rows []Row
	for _, d := range data {
		rows = append(rows, Row{Coords: []int{d.month, d.region}, Measures: []float64{d.sales}, Texts: []string{d.city}})
	}
	ft := buildRows(t, smallSchema(), rows)

	// Sum of sales for year == 0 (months 0..11): rows 0 and 1.
	req := ScanRequest{
		Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 0}},
		Measure:    0, Op: AggSum,
	}
	res, err := scan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 30 || res.Rows != 2 {
		t.Fatalf("sum = (%v,%d), want (30,2)", res.Value, res.Rows)
	}

	// Count with no predicates = all rows.
	res, err = scan(ft, ScanRequest{Op: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 || res.Rows != 4 {
		t.Fatalf("count = (%v,%d), want (4,4)", res.Value, res.Rows)
	}

	// Text predicate: city == "a" (code 0).
	res, err = scan(ft, ScanRequest{
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
	var rows []Row
	for i, v := range []float64{5, 1, 9, 3} {
		rows = append(rows, Row{Coords: []int{i, 0}, Measures: []float64{v}, Texts: []string{"x"}})
	}
	ft := buildRows(t, smallSchema(), rows)
	for _, c := range []struct {
		op   AggOp
		want float64
	}{{AggMin, 1}, {AggMax, 9}, {AggAvg, 4.5}, {AggSum, 18}} {
		res, err := scan(ft, ScanRequest{Measure: 0, Op: c.op})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != c.want {
			t.Errorf("%v = %v, want %v", c.op, res.Value, c.want)
		}
	}
}

func TestScanEmptySelection(t *testing.T) {
	ft, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 50, Seed: 3})
	res, err := scan(ft, ScanRequest{
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
		if _, err := scan(ft, req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if _, err := planRange(ft, Member{ScanRequest: ScanRequest{Op: AggCount}}, 5, 2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := planRange(ft, Member{ScanRequest: ScanRequest{Op: AggCount}}, 0, 99); err == nil {
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
		whole, err := scan(ft, req)
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
			part, err := planRange(ft, Member{ScanRequest: req}, lo, hi)
			if err != nil {
				return false
			}
			acc = Merge(op, acc, part.Scalar)
		}
		acc = Finalize(op, ft.Schema().MeasureScale(0), acc)
		return acc.Rows == whole.Rows && math.Float64bits(acc.Value) == math.Float64bits(whole.Value)
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
	b.SetBytes(int64(8 * ft.Rows())) // two code columns + one measure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan(ft, req); err != nil {
			b.Fatal(err)
		}
	}
}
