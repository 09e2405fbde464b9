package table

import (
	"fmt"
	"math"
	"math/rand"

	"hybridolap/internal/dict"
)

// GenSpec configures the deterministic synthetic fact-table generator.
type GenSpec struct {
	Schema Schema
	Rows   int
	Seed   int64
	// TextPools[i] is the value pool for text column i; rows draw uniformly
	// from the pool. When nil, a pool of DefaultPoolSize synthetic values
	// is used.
	TextPools [][]string
	// MeasureMax bounds generated measure values (default 1000); at its
	// scale, a measure's largest value must fit int32 units.
	MeasureMax float64
}

// DefaultPoolSize is the synthetic text pool size when none is supplied.
const DefaultPoolSize = 1000

// Generate builds a synthetic fact table: uniform coordinates at each
// dimension's finest level, uniform measures in [0, MeasureMax) stored as
// ⌊v·10^scale⌋ units of the drawn value v, and text values drawn from the
// pools. The same spec always yields the same table.
//
// It works a column at a time. One pass over the rows makes each row's
// draws in a fixed order — a coordinate per dimension, a measure per
// measure column, a pool index per text column — straight into the
// columns. Each text dictionary is then built once from the distinct
// strings drawn and the pool indices rewritten to codes, so duplicate pool
// strings share one code and no string is hashed per row; the columns end
// in FromColumns like every other table.
func Generate(spec GenSpec) (*FactTable, error) {
	if spec.Rows < 0 {
		return nil, fmt.Errorf("table: negative row count %d", spec.Rows)
	}
	s := spec.Schema
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if spec.TextPools != nil && len(spec.TextPools) < len(s.Texts) {
		return nil, fmt.Errorf("table: no text pool for column %q (%d pools, %d text columns)",
			s.Texts[len(spec.TextPools)].Name, len(spec.TextPools), len(s.Texts))
	}
	max := spec.MeasureMax
	if max <= 0 {
		max = 1000
	}
	pools := make([][]string, len(s.Texts))
	copy(pools, spec.TextPools)
	for i, ts := range s.Texts {
		if len(pools[i]) == 0 {
			pools[i] = make([]string, DefaultPoolSize)
			for j := range pools[i] {
				pools[i][j] = fmt.Sprintf("%s-%06d", ts.Name, j)
			}
		}
	}

	cards := make([]int, len(s.Dimensions))
	for d, dim := range s.Dimensions {
		cards[d] = dim.Levels[dim.Finest()].Cardinality
	}
	coords := columns[uint32](len(s.Dimensions), spec.Rows)
	measures := columns[int32](len(s.Measures), spec.Rows)
	type unitCol struct {
		col  []int32
		unit float64 // 10^scale
	}
	units := make([]unitCol, 0, len(measures))
	for m, ms := range s.Measures {
		unit := pow10(ms.Scale)
		if max*unit > math.MaxInt32 {
			return nil, fmt.Errorf("table: MeasureMax %v overflows int32 units of measure %q at scale %d", max, ms.Name, ms.Scale)
		}
		units = append(units, unitCol{measures[m], unit})
	}
	texts := columns[uint32](len(s.Texts), spec.Rows)
	rng := rand.New(rand.NewSource(spec.Seed))
	for r := 0; r < spec.Rows; r++ {
		for d, card := range cards {
			coords[d][r] = uint32(rng.Intn(card))
		}
		for i := range units {
			u := &units[i]
			v := rng.Float64() * max
			u.col[r] = int32(math.Floor(v * u.unit))
		}
		for i, pool := range pools {
			texts[i][r] = uint32(rng.Intn(len(pool)))
		}
	}

	bldrs := make([]*dict.Builder, len(s.Texts))
	for i := range bldrs {
		var err error
		if bldrs[i], err = drawn(pools[i], texts[i]); err != nil {
			return nil, err
		}
	}
	dicts, err := textDicts(s.Texts, bldrs, texts)
	if err != nil {
		return nil, err
	}
	return FromColumns(s, coords, measures, texts, dicts)
}

// columns returns n zeroed columns of rows values each.
func columns[T any](n, rows int) [][]T {
	cols := make([][]T, n)
	for i := range cols {
		cols[i] = make([]T, rows)
	}
	return cols
}

// drawn returns a dictionary builder holding the distinct pool strings col
// draws, in pool order, and rewrites col's pool indices, in place, to the
// builder's provisional codes.
func drawn(pool []string, col []uint32) (*dict.Builder, error) {
	prov := make([]dict.ID, len(pool))
	for _, j := range col {
		prov[j] = 1 // drawn: replaced by its provisional code below
	}
	b := dict.NewBuilder()
	for j, str := range pool {
		if prov[j] != 0 {
			var err error
			if prov[j], err = b.Add(str); err != nil {
				return nil, err
			}
		}
	}
	for r, j := range col {
		col[r] = prov[j]
	}
	return b, nil
}

// PaperSchema returns the evaluation configuration of Sec. IV: "the GPU has
// fact table of size ~4GB which contains 3 dimensions, 4 levels in each
// dimension". The level cardinalities are chosen so the four cube
// resolutions land on the paper's pre-calculated cube sizes with 32-byte
// cells:
//
//	level 0:    8·4·4    =      128 cells →   4 KB  (paper: ~4 KB)
//	level 1:   32·16·32  =   16 384 cells → 512 KB  (paper: ~500 KB)
//	level 2:  256·128·512 ≈  16.8 M cells → 512 MB  (paper: ~500 MB)
//	level 3: 1024·512·2048 ≈ 1.07 G cells →  32 GB  (paper: ~32 GB)
func PaperSchema() Schema {
	return Schema{
		Dimensions: []DimensionSpec{
			{Name: "time", Levels: []LevelSpec{
				{Name: "year", Cardinality: 8},
				{Name: "month", Cardinality: 32},
				{Name: "day", Cardinality: 256},
				{Name: "hour", Cardinality: 1024},
			}},
			{Name: "geo", Levels: []LevelSpec{
				{Name: "region", Cardinality: 4},
				{Name: "country", Cardinality: 16},
				{Name: "state", Cardinality: 128},
				{Name: "city", Cardinality: 512},
			}},
			{Name: "product", Levels: []LevelSpec{
				{Name: "sector", Cardinality: 4},
				{Name: "category", Cardinality: 32},
				{Name: "brand", Cardinality: 512},
				{Name: "item", Cardinality: 2048},
			}},
		},
		Measures: []MeasureSpec{
			{Name: "sales", Scale: 2},
			{Name: "quantity", Scale: 2},
		},
		Texts: []TextSpec{
			{Name: "store_name"},
			{Name: "customer_city"},
		},
	}
}
