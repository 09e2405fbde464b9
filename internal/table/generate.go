package table

import (
	"fmt"
	"math/rand"
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
	// MeasureMax bounds generated measure values (default 1000).
	MeasureMax float64
}

// DefaultPoolSize is the synthetic text pool size when none is supplied.
const DefaultPoolSize = 1000

// Generate builds a synthetic fact table: uniform coordinates at each
// dimension's finest level, uniform measures in [0, MeasureMax), and text
// values drawn from the pools. The same spec always yields the same table.
func Generate(spec GenSpec) (*FactTable, error) {
	if spec.Rows < 0 {
		return nil, fmt.Errorf("table: negative row count %d", spec.Rows)
	}
	b, err := NewBuilder(spec.Schema)
	if err != nil {
		return nil, err
	}
	b.Grow(spec.Rows)
	if err := generateInto(b, spec); err != nil {
		return nil, err
	}
	return b.Build()
}

// generateInto appends spec's rows to b (any capacity: the rows depend on
// the seed alone).
func generateInto(b *Builder, spec GenSpec) error {
	rng := rand.New(rand.NewSource(spec.Seed))
	max := spec.MeasureMax
	if max <= 0 {
		max = 1000
	}
	pools := spec.TextPools
	if pools == nil && len(spec.Schema.Texts) > 0 {
		pools = make([][]string, len(spec.Schema.Texts))
	}
	for i := range pools {
		if len(pools[i]) == 0 {
			pool := make([]string, DefaultPoolSize)
			for j := range pool {
				pool[j] = fmt.Sprintf("%s-%06d", spec.Schema.Texts[i].Name, j)
			}
			pools[i] = pool
		}
	}

	row := Row{
		Coords:   make([]int, len(spec.Schema.Dimensions)),
		Measures: make([]float64, len(spec.Schema.Measures)),
		Texts:    make([]string, len(spec.Schema.Texts)),
	}
	for r := 0; r < spec.Rows; r++ {
		for d, dim := range spec.Schema.Dimensions {
			row.Coords[d] = rng.Intn(dim.Levels[dim.Finest()].Cardinality)
		}
		for m := range row.Measures {
			row.Measures[m] = rng.Float64() * max
		}
		for i := range row.Texts {
			row.Texts[i] = pools[i][rng.Intn(len(pools[i]))]
		}
		if err := b.Append(row); err != nil {
			return err
		}
	}
	return nil
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
			{Name: "sales"},
			{Name: "quantity"},
		},
		Texts: []TextSpec{
			{Name: "store_name"},
			{Name: "customer_city"},
		},
	}
}
