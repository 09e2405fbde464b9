package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hybridolap/internal/table"
)

// scanKernelsFile is where ScanKernels drops its machine-readable result,
// next to wherever olapbench was invoked from.
const scanKernelsFile = "BENCH_scan.json"

// scanKernelCase is one row of the kernel comparison, as persisted to
// BENCH_scan.json.
type scanKernelCase struct {
	Case         string  `json:"case"`
	ReferenceNs  float64 `json:"reference_ns_per_row"`
	VectorizedNs float64 `json:"vectorized_ns_per_row"`
	Speedup      float64 `json:"speedup"`
}

type scanKernelsReport struct {
	Experiment string           `json:"experiment"`
	Rows       int              `json:"rows"`
	Reps       int              `json:"reps"`
	Seed       int64            `json:"seed"`
	Results    []scanKernelCase `json:"results"`
}

// ScanKernels measures the row-at-a-time reference scan (ScanRange) against
// the bound vectorized plan (a 1-member table.Plan) on the same table and
// predicate set — per aggregation op, per predicate selectivity, and per
// predicate shape — and writes the series to BENCH_scan.json. It is the
// olapbench twin of BenchmarkScanKernels in internal/table, for tracking
// the speedup as a committed baseline rather than a go-test artifact.
func ScanKernels(opts Options) (*Table, error) {
	rows := opts.pick(2_000_000, 200_000)
	reps := opts.pick(5, 2)

	const card = 100
	schema := table.Schema{
		Dimensions: []table.DimensionSpec{
			{Name: "d0", Levels: []table.LevelSpec{{Name: "l0", Cardinality: card}}},
			{Name: "d1", Levels: []table.LevelSpec{{Name: "l1", Cardinality: card}}},
			{Name: "d2", Levels: []table.LevelSpec{{Name: "l2", Cardinality: card}}},
		},
		Measures: []table.MeasureSpec{{Name: "m"}},
	}
	ft, err := table.Generate(table.GenSpec{Schema: schema, Rows: rows, Seed: opts.seed()})
	if err != nil {
		return nil, err
	}

	preds := func(n int, width uint32) []table.RangePredicate {
		out := make([]table.RangePredicate, n)
		for i := range out {
			out[i] = table.RangePredicate{Dim: i, Level: 0, From: 0, To: width - 1}
		}
		return out
	}

	type kernelCase struct {
		name string
		req  table.ScanRequest
	}
	cases := []kernelCase{
		{"sum 3-pred ~10% combined", table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: preds(3, 46)}},
	}
	for _, op := range []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg} {
		cases = append(cases, kernelCase{
			fmt.Sprintf("%s 1-pred 10%%", op),
			table.ScanRequest{Op: op, Measure: 0, Predicates: preds(1, 10)},
		})
	}
	for _, w := range []uint32{5, 46, 100} {
		cases = append(cases, kernelCase{
			fmt.Sprintf("sum 3-pred %d%%/pred", w),
			table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: preds(3, w)},
		})
	}
	cases = append(cases,
		kernelCase{"sum or-list", table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: []table.RangePredicate{{
			Dim: 0, Level: 0, From: 10, To: 19,
			Or: []table.CodeRange{{From: 40, To: 49}, {From: 70, To: 74}},
		}}}},
		kernelCase{"sum point-list", table.ScanRequest{Op: table.AggSum, Measure: 0, Predicates: []table.RangePredicate{{
			Dim: 0, Level: 0, From: 7, To: 7,
			Or: []table.CodeRange{{From: 21, To: 21}, {From: 56, To: 56}, {From: 83, To: 83}},
		}}}},
	)

	// timeNsPerRow runs fn reps times and returns the best wall time per
	// row — minimum, not mean, since scheduling noise only ever adds time.
	timeNsPerRow := func(fn func() error) (float64, error) {
		best := time.Duration(0)
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			el := time.Since(start)
			if r == 0 || el < best {
				best = el
			}
		}
		return float64(best.Nanoseconds()) / float64(rows), nil
	}

	t := &Table{
		ID:      "scan-kernels",
		Title:   "Row-at-a-time vs vectorized scan kernels",
		Columns: []string{"case", "reference [ns/row]", "vectorized [ns/row]", "speedup"},
		Notes: []string{
			fmt.Sprintf("%d rows, best of %d reps; machine-readable copy in %s", rows, reps, scanKernelsFile),
			"vectorized = Bind once (a 1-member plan), then 1024-row batches through a pooled selection vector",
		},
	}
	report := scanKernelsReport{Experiment: "scan-kernels", Rows: rows, Reps: reps, Seed: opts.seed()}

	for _, tc := range cases {
		refNs, err := timeNsPerRow(func() error {
			_, err := table.ScanRange(ft, tc.req, 0, ft.Rows())
			return err
		})
		if err != nil {
			return nil, err
		}
		plan, err := table.Bind(ft, []table.Member{{ScanRequest: tc.req}})
		if err != nil {
			return nil, err
		}
		vecNs, err := timeNsPerRow(func() error {
			return plan.RangeInto(0, ft.Rows(), make([]table.State, 1))
		})
		if err != nil {
			return nil, err
		}
		speedup := refNs / vecNs
		t.Rows = append(t.Rows, []string{tc.name, f(refNs), f(vecNs), f(speedup) + "x"})
		report.Results = append(report.Results, scanKernelCase{
			Case: tc.name, ReferenceNs: refNs, VectorizedNs: vecNs, Speedup: speedup,
		})
	}

	buf, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(scanKernelsFile, append(buf, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("experiments: writing %s: %w", scanKernelsFile, err)
	}
	return t, nil
}
