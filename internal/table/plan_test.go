package table

import (
	"fmt"
	"testing"
)

// The shared fixtures of the plan's tests: the differentials against the
// oracle (reference_test.go, package table_test) and the in-package tests
// of the plan's internals.

func diffSchema() Schema {
	return Schema{
		Dimensions: []DimensionSpec{
			{Name: "time", Levels: []LevelSpec{
				{Name: "year", Cardinality: 4},
				{Name: "month", Cardinality: 48},
			}},
			{Name: "geo", Levels: []LevelSpec{
				{Name: "region", Cardinality: 6},
				{Name: "city", Cardinality: 60},
			}},
			{Name: "product", Levels: []LevelSpec{
				{Name: "category", Cardinality: 10},
			}},
		},
		Measures: []MeasureSpec{{Name: "sales"}, {Name: "qty"}},
		Texts:    []TextSpec{{Name: "note"}},
	}
}

// diffTables builds the shared table set once: sizes straddle every batch
// boundary (0, 1, BatchSize±1, several batches plus a tail).
func diffTables(t testing.TB) []*FactTable {
	t.Helper()
	sizes := []int{0, 1, 37, BatchSize - 1, BatchSize, BatchSize + 1, 3*BatchSize + 213}
	pool := make([]string, 30)
	for i := range pool {
		pool[i] = fmt.Sprintf("note-%02d", i)
	}
	out := make([]*FactTable, len(sizes))
	for i, n := range sizes {
		ft, err := Generate(GenSpec{
			Schema:    diffSchema(),
			Rows:      n,
			Seed:      int64(100 + i),
			TextPools: [][]string{pool},
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ft
	}
	return out
}

// bind1 binds m as a 1-member plan.
func bind1(t testing.TB, ft *FactTable, m Member) *Plan {
	t.Helper()
	pl, err := Bind(ft, []Member{m})
	if err != nil {
		t.Fatalf("Bind(%+v): %v", m, err)
	}
	return pl
}

// planRange answers m over rows [lo, hi) of ft with a 1-member plan,
// unfinalised.
func planRange(ft *FactTable, m Member, lo, hi int) (State, error) {
	pl, err := Bind(ft, []Member{m})
	if err != nil {
		return State{}, err
	}
	return rangeFrom(pl, State{}, lo, hi)
}

// scan answers a scalar request over every row of ft, finalised.
func scan(ft *FactTable, req ScanRequest) (ScanResult, error) {
	st, err := planRange(ft, Member{ScanRequest: req}, 0, ft.Rows())
	return Finalize(req.Op, ft.Schema().MeasureScale(req.Measure), st.Scalar), err
}

// groupScan answers a grouped member over every row of ft, finalised.
func groupScan(ft *FactTable, m Member) ([]GroupRow, error) {
	st, err := planRange(ft, m, 0, ft.Rows())
	if err != nil {
		return nil, err
	}
	return FinalizeGroups(m.Op, ft.Schema().MeasureScale(m.Measure), st.Groups, len(m.GroupBy)), nil
}

// rangeFrom continues a 1-member plan's state over rows [lo, hi).
func rangeFrom(pl *Plan, st State, lo, hi int) (State, error) {
	states := []State{st}
	err := pl.RangeInto(lo, hi, states)
	return states[0], err
}

// TestScanPlanSelectivityOrdering checks the ordering rule: the most
// selective predicate seeds the selection vector (as the envelope, which
// for a lone member's plain range is that predicate exactly, so it leaves
// the residual list) and the rest refine it most selective first.
func TestScanPlanSelectivityOrdering(t *testing.T) {
	ft := diffTables(t)[3]
	req := ScanRequest{
		Op:      AggSum,
		Measure: 0,
		Predicates: []RangePredicate{
			{Dim: 0, Level: 1, From: 0, To: 23}, // ~50% of 48 months
			{Dim: 1, Level: 1, From: 0, To: 5},  // ~10% of 60 cities
			{Dim: 2, Level: 0, From: 0, To: 8},  // ~90% of 10 categories
		},
	}
	plan := bind1(t, ft, Member{ScanRequest: req})
	preds := plan.members[0].preds
	if len(preds) != 2 {
		t.Fatalf("%d residual predicates, want 2", len(preds))
	}
	if preds[0].sel > preds[1].sel {
		t.Fatalf("residuals not selectivity-ordered: %v then %v", preds[0].sel, preds[1].sel)
	}
	if !plan.sharedSet || plan.shared.sel > 0.2 || plan.shared.ref != (colRef{a: 1, b: 1}) {
		t.Fatalf("most selective predicate (10%%) should seed; got %+v", plan.shared)
	}
}

// raceEnabled is set by race_enabled_test.go under -race, where the
// detector's instrumentation (and sync.Pool's race hooks) make
// AllocsPerRun meaningless.
var raceEnabled = false

// TestScanPlanSteadyStateAllocs pins the zero-allocation property of the
// vectorized scan loop for a scalar 1-member plan (the pooled scratch
// makes RangeInto allocation-free after warmup) — on the seeded path and
// on the dense-run path.
func TestScanPlanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ft := diffTables(t)[6]
	for _, req := range []ScanRequest{
		{Op: AggSum, Measure: 0, Predicates: []RangePredicate{
			{Dim: 0, Level: 1, From: 0, To: 20},
			{Dim: 1, Level: 1, From: 0, To: 30},
		}},
		{Op: AggMin, Measure: 1},
	} {
		plan := bind1(t, ft, Member{ScanRequest: req})
		states := make([]State, 1)
		// Warm the scratch pool.
		if err := plan.RangeInto(0, ft.Rows(), states); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := plan.RangeInto(0, ft.Rows(), states); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%+v: steady-state RangeInto allocates %v objects/op; want 0", req, allocs)
		}
	}
}
