package table_test

import (
	"fmt"
	"testing"

	"hybridolap/internal/oracle"
	"hybridolap/internal/table"
)

// Benchmarks comparing the row-at-a-time reference kernel (the oracle)
// against the vectorized batch kernel (a 1-member Plan's RangeInto, unless
// a fanin= row says otherwise) — the numbers behind the "Vectorized
// execution" section of DESIGN.md and the BENCH_scan.json baseline, and
// the A/B for kernel edits (`make bench-kernels`). The acceptance bar for this layer is the
// rows=10M/preds=3/sel=10pct pair: vectorized must run >= 1.5x faster
// than reference with 0 allocs/op.
//
// The benchmark schema's columns hold 100 codes, so they are stored in one
// byte; a width=8|16|32 row runs the same table with its code columns
// forced that wide (atWidth), which puts ns/row per kernel stencil on
// record. width=32 is what every row measured before codes were narrow.

// benchCard is the per-column cardinality of the benchmark schema; with
// uniform codes, a predicate accepting w of benchCard codes has
// selectivity w/benchCard.
const benchCard = 100

func benchSchema() table.Schema {
	return table.Schema{
		Dimensions: []table.DimensionSpec{
			{Name: "d0", Levels: []table.LevelSpec{{Name: "l0", Cardinality: benchCard}}},
			{Name: "d1", Levels: []table.LevelSpec{{Name: "l1", Cardinality: benchCard}}},
			{Name: "d2", Levels: []table.LevelSpec{{Name: "l2", Cardinality: benchCard}}},
		},
		Measures: []table.MeasureSpec{{Name: "m"}},
	}
}

// benchTables caches generated tables across sub-benchmarks (a 10M-row
// table takes seconds to build; the scan under test takes milliseconds),
// by rows and forced code width in bits (8: as narrow as they go).
var benchTables = map[[2]int]*table.FactTable{}

func benchTable(b *testing.B, rows int) *table.FactTable { return benchTableAt(b, rows, 8) }

func benchTableAt(b *testing.B, rows, bits int) *table.FactTable {
	b.Helper()
	if ft, ok := benchTables[[2]int{rows, bits}]; ok {
		return ft
	}
	var ft *table.FactTable
	if bits == 8 {
		var err error
		if ft, err = table.Generate(table.GenSpec{Schema: benchSchema(), Rows: rows, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	} else {
		ft = table.AtWidth(benchTableAt(b, rows, 8), bits/8)
	}
	benchTables[[2]int{rows, bits}] = ft
	return ft
}

// benchWidths is the width axis of the kernel matrix, in bits.
var benchWidths = []int{8, 16, 32}

// predsForSelectivity builds n predicates, each accepting `width` of the
// benchCard codes on a distinct column.
func predsForSelectivity(n int, width uint32) []table.RangePredicate {
	out := make([]table.RangePredicate, n)
	for i := range out {
		out[i] = table.RangePredicate{Dim: i, Level: 0, From: 0, To: width - 1}
	}
	return out
}

func runReference(b *testing.B, ft *table.FactTable, req table.ScanRequest) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Table(ft, table.Member{ScanRequest: req}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(firstColumnBytes(ft))
}

// firstColumnBytes is the first predicate column's traffic per pass: the
// stored column of dimension 0, whichever of its levels the predicate names.
func firstColumnBytes(ft *table.FactTable) int64 {
	c := ft.DimLevelColumn(0, ft.Schema().Dimensions[0].Finest())
	return int64(c.Len() * c.Width())
}

// runVectorized times one whole-table pass of the members' plan at the
// given batch size. States are reset between passes inside the timed
// region: a K-element clear is noise against a million rows.
func runVectorized(b *testing.B, ft *table.FactTable, batch int, members ...table.Member) {
	b.Helper()
	plan, err := table.Bind(ft, members)
	if err != nil {
		b.Fatal(err)
	}
	states := make([]table.State, len(members))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(states)
		if err := plan.RangeBatch(0, ft.Rows(), states, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(firstColumnBytes(ft))
}

// fanInMembers derives k members of one fusion family from m: the same
// columns, each member's intervals shifted by its index, ops cycling.
func fanInMembers(m table.Member, k int) []table.Member {
	out := make([]table.Member, k)
	for mi := range out {
		out[mi] = m
		out[mi].Op = table.AggOp((int(m.Op) + mi) % 5)
		out[mi].Predicates = append([]table.RangePredicate(nil), m.Predicates...)
		for pi := range out[mi].Predicates {
			out[mi].Predicates[pi].From += uint32(mi)
			out[mi].Predicates[pi].To += uint32(mi)
		}
	}
	return out
}

// BenchmarkScanKernels is the kernel comparison matrix. The headline pair
// (acceptance criterion) is rows=10M/preds=3/sel=10pct.
func BenchmarkScanKernels(b *testing.B) {
	// Headline: 10M rows, 3 predicates, ~10% combined selectivity
	// (0.46^3 ≈ 0.097), sum aggregation.
	b.Run("rows=10M/preds=3/sel=10pct/kernel=reference", func(b *testing.B) {
		ft := benchTable(b, 10_000_000)
		runReference(b, ft, table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: predsForSelectivity(3, 46)})
	})
	b.Run("rows=10M/preds=3/sel=10pct/kernel=vectorized", func(b *testing.B) {
		ft := benchTable(b, 10_000_000)
		runVectorized(b, ft, table.BatchSize, table.Member{ScanRequest: table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: predsForSelectivity(3, 46)}})
	})

	// Per-op comparison at 1M rows, one ~10% predicate.
	ops := []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg}
	for _, op := range ops {
		op := op
		req := table.ScanRequest{Op: op, Measure: 0, Predicates: predsForSelectivity(1, 10)}
		b.Run(fmt.Sprintf("rows=1M/op=%s/kernel=reference", op), func(b *testing.B) {
			runReference(b, benchTable(b, 1_000_000), req)
		})
		for _, bits := range benchWidths {
			bits := bits
			b.Run(fmt.Sprintf("rows=1M/op=%s/width=%d/kernel=vectorized", op, bits), func(b *testing.B) {
				runVectorized(b, benchTableAt(b, 1_000_000, bits), table.BatchSize, table.Member{ScanRequest: req})
			})
		}
	}

	// Per-selectivity comparison at 1M rows, 3 predicates; widths are the
	// per-predicate accepted codes of benchCard.
	for _, w := range []uint32{5, 22, 46, 79, 100} {
		w := w
		pct := float64(w) / benchCard * 100
		req := table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: predsForSelectivity(3, w)}
		b.Run(fmt.Sprintf("rows=1M/predsel=%.0fpct/kernel=reference", pct), func(b *testing.B) {
			runReference(b, benchTable(b, 1_000_000), req)
		})
		for _, bits := range benchWidths {
			bits := bits
			b.Run(fmt.Sprintf("rows=1M/predsel=%.0fpct/width=%d/kernel=vectorized", pct, bits), func(b *testing.B) {
				runVectorized(b, benchTableAt(b, 1_000_000, bits), table.BatchSize, table.Member{ScanRequest: req})
			})
		}
	}

	// Batch-size sweep: the speedup at each batch size (the BatchSize
	// constant is the tuned point of this curve).
	for _, batch := range []int{64, 256, 1024, 4096} {
		batch := batch
		req := table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: predsForSelectivity(3, 46)}
		b.Run(fmt.Sprintf("rows=1M/batch=%d/kernel=vectorized", batch), func(b *testing.B) {
			runVectorized(b, benchTable(b, 1_000_000), batch, table.Member{ScanRequest: req})
		})
	}

	// Fan-in: the same pass shared by 1 and by 8 members of one family
	// (ns/op is per pass; divide by the fan-in for the per-query cost).
	for _, k := range []int{1, 8} {
		k := k
		m := table.Member{ScanRequest: table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: predsForSelectivity(3, 46)}}
		b.Run(fmt.Sprintf("rows=1M/fanin=%d/kernel=vectorized", k), func(b *testing.B) {
			runVectorized(b, benchTable(b, 1_000_000), table.BatchSize, fanInMembers(m, k)...)
		})
	}

	// Predicate shapes: Or-list and translated-text point-list kernels.
	orPreds := []table.RangePredicate{{
		Dim: 0, Level: 0, From: 10, To: 19,
		Or: []table.CodeRange{{From: 40, To: 49}, {From: 70, To: 74}},
	}}
	pointPreds := []table.RangePredicate{{
		Dim: 0, Level: 0, From: 7, To: 7,
		Or: []table.CodeRange{{From: 21, To: 21}, {From: 56, To: 56}, {From: 83, To: 83}},
	}}
	for _, tc := range []struct {
		name  string
		preds []table.RangePredicate
	}{{"or", orPreds}, {"points", pointPreds}} {
		tc := tc
		req := table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: tc.preds}
		b.Run(fmt.Sprintf("rows=1M/shape=%s/kernel=reference", tc.name), func(b *testing.B) {
			runReference(b, benchTable(b, 1_000_000), req)
		})
		for _, bits := range benchWidths {
			bits := bits
			b.Run(fmt.Sprintf("rows=1M/shape=%s/width=%d/kernel=vectorized", tc.name, bits), func(b *testing.B) {
				runVectorized(b, benchTableAt(b, 1_000_000, bits), table.BatchSize, table.Member{ScanRequest: req})
			})
		}
	}
}

// paperBench caches the 1M-row PaperSchema table of the coarse= rows.
var paperBench *table.FactTable

// BenchmarkScanKernelsCoarse runs the dashboard family's predicate pair —
// time.day × geo.state, two coarse levels — and the same selectivity on
// the finest levels (time.hour × geo.city) over a 1M-row PaperSchema
// table: a coarse predicate reads its dimension's finest column, bound to
// the finest codes its interval covers.
func BenchmarkScanKernelsCoarse(b *testing.B) {
	for _, tc := range []struct {
		name  string
		preds []table.RangePredicate
	}{
		{"coarse", []table.RangePredicate{{Dim: 0, Level: 2, From: 40, To: 200}, {Dim: 1, Level: 2, From: 10, To: 100}}},
		{"finest", []table.RangePredicate{{Dim: 0, Level: 3, From: 160, To: 803}, {Dim: 1, Level: 3, From: 40, To: 403}}},
	} {
		req := table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: tc.preds}
		ft := func(b *testing.B) *table.FactTable {
			b.Helper()
			if paperBench == nil {
				var err error
				if paperBench, err = table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: 1_000_000, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			return paperBench
		}
		b.Run(fmt.Sprintf("rows=1M/levels=%s/kernel=reference", tc.name), func(b *testing.B) {
			runReference(b, ft(b), req)
		})
		b.Run(fmt.Sprintf("rows=1M/levels=%s/kernel=vectorized", tc.name), func(b *testing.B) {
			runVectorized(b, ft(b), table.BatchSize, table.Member{ScanRequest: req})
		})
	}
}

// BenchmarkGroupScanKernels compares the grouped kernels: the oracle vs a plan whose members scatter by a GroupBy column.
func BenchmarkGroupScanKernels(b *testing.B) {
	req := table.Member{
		ScanRequest: table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: predsForSelectivity(2, 46)},
		GroupBy:     []table.GroupCol{{Dim: 2, Level: 0}},
	}
	b.Run("rows=1M/kernel=reference", func(b *testing.B) {
		ft := benchTable(b, 1_000_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := oracle.Table(ft, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, bits := range benchWidths {
		bits := bits
		b.Run(fmt.Sprintf("rows=1M/width=%d/kernel=vectorized", bits), func(b *testing.B) {
			runVectorized(b, benchTableAt(b, 1_000_000, bits), table.BatchSize, req)
		})
	}
	for _, k := range []int{1, 8} {
		k := k
		b.Run(fmt.Sprintf("rows=1M/fanin=%d/kernel=vectorized", k), func(b *testing.B) {
			runVectorized(b, benchTable(b, 1_000_000), table.BatchSize, fanInMembers(req, k)...)
		})
	}
}
