package tpcds

import (
	"fmt"

	"hybridolap/internal/dict"
	"hybridolap/internal/table"
)

// Spec sizes a synthetic store_sales-like fact table.
type Spec struct {
	// Rows is the fact-table row count.
	Rows int
	// Seed makes generation reproducible.
	Seed int64
	// Customers, Cities, Brands, Stores set the distinct-value counts of
	// the text columns — the dictionary lengths D_L that drive translation
	// cost. Zero values pick TPC-DS scale-1-ish defaults.
	Customers, Cities, Brands, Stores int
}

func (s *Spec) defaults() {
	if s.Customers == 0 {
		s.Customers = 100_000
	}
	if s.Cities == 0 {
		s.Cities = 1_000
	}
	if s.Brands == 0 {
		s.Brands = 500
	}
	if s.Stores == 0 {
		s.Stores = 200
	}
}

// Schema returns the store_sales-like schema: a date hierarchy
// (year→quarter→month→day), a store geography (region→state→store) and an
// item hierarchy (category→class→item), with sales measures — decimals
// at TPC-DS's scales — and four text columns.
func Schema() table.Schema {
	return table.Schema{
		Dimensions: []table.DimensionSpec{
			{Name: "date", Levels: []table.LevelSpec{
				{Name: "year", Cardinality: 5},
				{Name: "quarter", Cardinality: 20},
				{Name: "month", Cardinality: 60},
				{Name: "day", Cardinality: 1800},
			}},
			{Name: "store_geo", Levels: []table.LevelSpec{
				{Name: "region", Cardinality: 4},
				{Name: "state", Cardinality: 48},
				{Name: "store", Cardinality: 192},
			}},
			{Name: "item", Levels: []table.LevelSpec{
				{Name: "category", Cardinality: 10},
				{Name: "class", Cardinality: 80},
				{Name: "sku", Cardinality: 1600},
			}},
		},
		// TPC-DS declares ss_quantity an integer and ss_net_paid /
		// ss_net_profit decimal(7,2).
		Measures: []table.MeasureSpec{
			{Name: "quantity", Scale: 0},
			{Name: "net_paid", Scale: 2},
			{Name: "net_profit", Scale: 2},
		},
		Texts: []table.TextSpec{
			{Name: "customer_name"},
			{Name: "customer_city"},
			{Name: "item_brand"},
			{Name: "store_name"},
		},
	}
}

// Generate builds the synthetic fact table for a spec.
func Generate(spec Spec) (*table.FactTable, error) {
	spec.defaults()
	if spec.Rows < 0 {
		return nil, fmt.Errorf("tpcds: negative row count")
	}
	return table.Generate(table.GenSpec{
		Schema: Schema(),
		Rows:   spec.Rows,
		Seed:   spec.Seed,
		TextPools: [][]string{
			Pool(spec.Customers, CustomerName),
			Pool(spec.Cities, CityName),
			Pool(spec.Brands, BrandName),
			Pool(spec.Stores, StoreName),
		},
		MeasureMax: 500,
	})
}

// Dictionary builds a standalone dictionary of exactly n realistic values
// using the given namer — the corpus for the Fig. 9 dictionary-search
// sweep.
func Dictionary(n int, kind dict.Kind, namer func(int) string) (dict.Dictionary, error) {
	b := dict.NewBuilder()
	for i := 0; b.Len() < n; i++ {
		if _, err := b.Add(namer(i)); err != nil {
			return nil, err
		}
	}
	d, _, err := b.Build(kind)
	return d, err
}
