package table

import (
	"fmt"
	"math/rand"
	"testing"
)

// The differential property suite: the vectorized Plan must agree
// *exactly* — bit-identical values, not epsilon-close — with the
// row-at-a-time reference kernels, across random tables, predicate shapes,
// ops, member counts and stripe boundaries. The kernel is built to visit
// rows in the same order and accumulate floats in the same order, so ==
// comparison is the specification, not an approximation.

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

// randPred draws one predicate of a random shape:
//
//	plain range  — including inverted (zero-match) ranges,
//	range + Or   — overlapping intervals, some inverted, over dim levels,
//	points       — the translated text IN-list shape (all single codes).
func randPred(rng *rand.Rand, s *Schema) RangePredicate {
	var p RangePredicate
	card := 0
	switch rng.Intn(4) {
	case 0: // text column
		p.Text = true
		p.TextIndex = 0
		card = 30
	default:
		p.Dim = rng.Intn(len(s.Dimensions))
		p.Level = rng.Intn(len(s.Dimensions[p.Dim].Levels))
		card = s.LevelCardinality(p.Dim, p.Level)
	}
	shape := rng.Intn(3)
	switch {
	case shape == 0: // plain range, sometimes inverted (matches nothing)
		if rng.Intn(8) == 0 {
			p.From = uint32(rng.Intn(card)) + 1
			p.To = p.From - 1 // inverted
			return p
		}
		a, b := uint32(rng.Intn(card)), uint32(rng.Intn(card))
		if a > b {
			a, b = b, a
		}
		p.From, p.To = a, b
	case shape == 1: // range + Or intervals, overlaps allowed
		a, b := uint32(rng.Intn(card)), uint32(rng.Intn(card))
		if a > b {
			a, b = b, a
		}
		p.From, p.To = a, b
		for i, k := 0, rng.Intn(3)+1; i < k; i++ {
			c, d := uint32(rng.Intn(card)), uint32(rng.Intn(card))
			if rng.Intn(4) != 0 && c > d {
				c, d = d, c // leave some inverted Or intervals in place
			}
			p.Or = append(p.Or, CodeRange{From: c, To: d})
		}
	default: // points: IN-list of single codes
		p.From = uint32(rng.Intn(card))
		p.To = p.From
		for i, k := 0, rng.Intn(4); i < k; i++ {
			c := uint32(rng.Intn(card))
			p.Or = append(p.Or, CodeRange{From: c, To: c})
		}
	}
	return p
}

func randScanReq(rng *rand.Rand, s *Schema) ScanRequest {
	req := ScanRequest{
		Op:      AggOp(rng.Intn(5)),
		Measure: rng.Intn(len(s.Measures)),
	}
	for i, k := 0, rng.Intn(4); i < k; i++ {
		req.Predicates = append(req.Predicates, randPred(rng, s))
	}
	return req
}

// randStripe draws a [lo, hi) stripe biased toward the interesting edges:
// empty stripes, the full table, and batch-boundary-straddling cuts.
func randStripe(rng *rand.Rand, rows int) (int, int) {
	switch rng.Intn(5) {
	case 0:
		return 0, rows
	case 1:
		lo := rng.Intn(rows + 1)
		return lo, lo // empty
	default:
		lo := rng.Intn(rows + 1)
		hi := lo + rng.Intn(rows-lo+1)
		return lo, hi
	}
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

// rangeFrom continues a 1-member plan's state over rows [lo, hi).
func rangeFrom(pl *Plan, st State, lo, hi int) (State, error) {
	states := []State{st}
	err := pl.RangeInto(lo, hi, states)
	return states[0], err
}

func TestScanPlanDifferential(t *testing.T) {
	tables := diffTables(t)
	rng := rand.New(rand.NewSource(42))
	schema := diffSchema()
	for i := 0; i < 1200; i++ {
		ft := tables[rng.Intn(len(tables))]
		req := randScanReq(rng, &schema)
		lo, hi := randStripe(rng, ft.Rows())

		want, wantErr := ScanRange(ft, req, lo, hi)
		got, gotErr := rangeFrom(bind1(t, ft, Member{ScanRequest: req}), State{}, lo, hi)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: error mismatch: ref=%v vec=%v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Scalar != want || got.Groups != nil {
			t.Fatalf("case %d: req=%+v stripe=[%d,%d) rows=%d\nref=%+v\nvec=%+v",
				i, req, lo, hi, ft.Rows(), want, got)
		}
	}
}

// TestScanPlanMinMaxZeroMatchStripes pins the acceptance case: min/max
// over stripes in which no row passes must agree with the reference,
// including the Rows==0 partial whose Value merges away.
func TestScanPlanMinMaxZeroMatchStripes(t *testing.T) {
	ft := diffTables(t)[4] // BatchSize rows
	for _, op := range []AggOp{AggMin, AggMax} {
		req := ScanRequest{
			Op: op,
			// Inverted range: matches no row at all.
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 3, To: 2}},
		}
		want, err := ScanRange(ft, req, 0, ft.Rows())
		if err != nil {
			t.Fatal(err)
		}
		got, err := rangeFrom(bind1(t, ft, Member{ScanRequest: req}), State{}, 0, ft.Rows())
		if err != nil {
			t.Fatal(err)
		}
		if got.Scalar != want || got.Scalar.Rows != 0 {
			t.Fatalf("op %v zero-match: ref=%+v vec=%+v", op, want, got)
		}
		// And a zero-match stripe merged with a matching stripe.
		req.Predicates[0] = RangePredicate{Dim: 0, Level: 1, From: 0, To: 0}
		wantA, _ := ScanRange(ft, req, 0, 10)
		planB := bind1(t, ft, Member{ScanRequest: req})
		gotA, _ := rangeFrom(planB, State{}, 0, 10)
		wantB, _ := ScanRange(ft, req, 10, ft.Rows())
		gotB, _ := rangeFrom(planB, State{}, 10, ft.Rows())
		if Merge(op, wantA, wantB) != Merge(op, gotA.Scalar, gotB.Scalar) {
			t.Fatalf("op %v stripe merge mismatch", op)
		}
	}
}

func TestScanPlanValidationMatchesReference(t *testing.T) {
	ft := diffTables(t)[2]
	bad := []ScanRequest{
		{Op: AggSum, Measure: 99},
		{Op: AggSum, Predicates: []RangePredicate{{Dim: 9}}},
		{Op: AggSum, Predicates: []RangePredicate{{Dim: 0, Level: 9}}},
		{Op: AggSum, Predicates: []RangePredicate{{Text: true, TextIndex: 5}}},
	}
	for i, req := range bad {
		if _, err := Bind(ft, []Member{{ScanRequest: req}}); err == nil {
			t.Errorf("bad request %d: Bind accepted it", i)
		}
		if _, err := ScanRange(ft, req, 0, ft.Rows()); err == nil {
			t.Errorf("bad request %d: ScanRange accepted it", i)
		}
	}
	// Range bounds are checked per call, like ScanRange.
	plan := bind1(t, ft, Member{ScanRequest: ScanRequest{Op: AggCount}})
	if _, err := rangeFrom(plan, State{}, -1, 3); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := rangeFrom(plan, State{}, 0, ft.Rows()+1); err == nil {
		t.Error("hi past table accepted")
	}
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

func groupsEqual(a, b Groups) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va != vb {
			return false
		}
	}
	return true
}

func randGroupReq(rng *rand.Rand, s *Schema) GroupScanRequest {
	req := GroupScanRequest{ScanRequest: randScanReq(rng, s)}
	n := rng.Intn(2) + 1
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			req.GroupBy = append(req.GroupBy, GroupCol{Text: true, TextIndex: 0})
			continue
		}
		d := rng.Intn(len(s.Dimensions))
		req.GroupBy = append(req.GroupBy, GroupCol{Dim: d, Level: rng.Intn(len(s.Dimensions[d].Levels))})
	}
	return req
}

func TestGroupScanPlanDifferential(t *testing.T) {
	tables := diffTables(t)
	rng := rand.New(rand.NewSource(43))
	schema := diffSchema()
	for i := 0; i < 1000; i++ {
		ft := tables[rng.Intn(len(tables))]
		req := randGroupReq(rng, &schema)
		lo, hi := randStripe(rng, ft.Rows())

		want, wantErr := GroupScanRange(ft, req, lo, hi)
		plan, planErr := Bind(ft, []Member{{ScanRequest: req.ScanRequest, GroupBy: req.GroupBy}})
		if (wantErr == nil) != (planErr == nil) {
			t.Fatalf("case %d: error mismatch: ref=%v bind=%v", i, wantErr, planErr)
		}
		if wantErr != nil {
			continue
		}
		st, err := rangeFrom(plan, State{}, lo, hi)
		if err != nil {
			t.Fatalf("case %d: RangeInto: %v", i, err)
		}
		got := st.Groups
		if !groupsEqual(want, got) || st.Scalar != (ScanResult{}) {
			t.Fatalf("case %d: req=%+v stripe=[%d,%d)\nref=%v\nvec=%v", i, req, lo, hi, want, got)
		}
	}
}

// TestGroupScanPlanStripeAccumulation proves RangeInto over consecutive
// stripes into one state is bit-identical to a single reference scan over
// their union — the substitution gpusim's per-SM loop makes. (It is NOT
// compared against MergeGroups of per-stripe partials: merging partial
// float sums rounds differently than one continuous accumulation, which
// is exactly why the per-SM loop now accumulates instead of merging.)
func TestGroupScanPlanStripeAccumulation(t *testing.T) {
	tables := diffTables(t)
	rng := rand.New(rand.NewSource(44))
	schema := diffSchema()
	for i := 0; i < 200; i++ {
		ft := tables[rng.Intn(len(tables))]
		if ft.Rows() == 0 {
			continue
		}
		req := randGroupReq(rng, &schema)
		plan, err := Bind(ft, []Member{{ScanRequest: req.ScanRequest, GroupBy: req.GroupBy}})
		if err != nil {
			continue
		}
		// Cut the table into 1-4 stripes.
		cuts := []int{0}
		for k, n := 0, rng.Intn(3); k < n; k++ {
			cuts = append(cuts, rng.Intn(ft.Rows()+1))
		}
		cuts = append(cuts, ft.Rows())
		for a := 1; a < len(cuts); a++ {
			for b := a; b > 0 && cuts[b-1] > cuts[b]; b-- {
				cuts[b-1], cuts[b] = cuts[b], cuts[b-1]
			}
		}
		var st State
		for s := 1; s < len(cuts); s++ {
			st, err = rangeFrom(plan, st, cuts[s-1], cuts[s])
			if err != nil {
				t.Fatal(err)
			}
		}
		acc := st.Groups
		ref, err := GroupScanRange(ft, req, cuts[0], cuts[len(cuts)-1])
		if err != nil {
			t.Fatal(err)
		}
		if !groupsEqual(ref, acc) {
			t.Fatalf("case %d: stripe accumulation diverged\nref=%v\nvec=%v", i, ref, acc)
		}
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
