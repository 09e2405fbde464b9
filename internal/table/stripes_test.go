package table

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stripeTable generates a small table with the diff schema.
func stripeTable(t *testing.T, rows int, seed int64) *FactTable {
	t.Helper()
	ft, err := Generate(GenSpec{Schema: diffSchema(), Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestRegistryPublishAppend(t *testing.T) {
	base := stripeTable(t, 100, 1)
	reg, err := NewRegistry(diffSchema(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	s0 := reg.Current()
	if s0.Epoch() != 0 || s0.Rows() != 100 || len(s0.Stripes()) != 1 {
		t.Fatalf("epoch0: epoch=%d rows=%d stripes=%d", s0.Epoch(), s0.Rows(), len(s0.Stripes()))
	}

	d1 := stripeTable(t, 10, 2)
	d2 := stripeTable(t, 20, 3)
	s1, err := reg.Publish([]*FactTable{d1, d2}, StripeDelta, nil, "aux1")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch() != 1 || s1.Rows() != 130 || s1.DeltaStripes() != 2 {
		t.Fatalf("epoch1: epoch=%d rows=%d deltas=%d", s1.Epoch(), s1.Rows(), s1.DeltaStripes())
	}
	if s1.Aux() != "aux1" {
		t.Fatalf("aux = %v", s1.Aux())
	}
	// The pinned older snapshot is untouched.
	if s0.Rows() != 100 || len(s0.Stripes()) != 1 {
		t.Fatal("published epoch mutated a pinned snapshot")
	}
	if reg.Current() != s1 {
		t.Fatal("Current should return the latest snapshot")
	}
}

func TestRegistryPublishSplice(t *testing.T) {
	base := stripeTable(t, 50, 1)
	reg, err := NewRegistry(diffSchema(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []*FactTable
	for i := 0; i < 4; i++ {
		deltas = append(deltas, stripeTable(t, 10+i, int64(10+i)))
	}
	snap, err := reg.Publish(deltas, StripeDelta, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compact the middle two deltas (IDs 2,3) into one merged stripe: it
	// must splice in at their position, keeping row order base,d0,M,d3.
	ids := []uint64{snap.Stripes()[2].ID(), snap.Stripes()[3].ID()}
	merged := stripeTable(t, 23, 99)
	s2, err := reg.Publish([]*FactTable{merged}, StripeBase, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Stripes()) != 4 {
		t.Fatalf("stripes after compaction = %d, want 4", len(s2.Stripes()))
	}
	wantRows := []int{50, 10, 23, 13}
	for i, st := range s2.Stripes() {
		if st.Rows() != wantRows[i] {
			t.Fatalf("stripe %d rows = %d, want %d", i, st.Rows(), wantRows[i])
		}
	}
	if s2.Stripes()[2].Kind() != StripeBase {
		t.Fatal("merged stripe should be base kind")
	}
	if s2.DeltaStripes() != 2 {
		t.Fatalf("deltas = %d, want 2", s2.DeltaStripes())
	}

	// Removing an unknown ID fails and publishes nothing.
	if _, err := reg.Publish(nil, StripeBase, []uint64{12345}, nil); err == nil {
		t.Fatal("expected error for unknown stripe ID")
	}
	if reg.Current() != s2 {
		t.Fatal("failed publish must not advance the epoch")
	}
}

func TestRegistrySchemaMismatch(t *testing.T) {
	base := stripeTable(t, 10, 1)
	reg, err := NewRegistry(diffSchema(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := Schema{
		Dimensions: []DimensionSpec{{Name: "d", Levels: []LevelSpec{{Name: "l", Cardinality: 4}}}},
		Measures:   []MeasureSpec{{Name: "m"}},
	}
	ft, err := Generate(GenSpec{Schema: other, Rows: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish([]*FactTable{ft}, StripeDelta, nil, nil); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

// TestRangeFromChaining: splitting a scan at arbitrary points and chaining
// RangeInto through one state must be bit-identical to one RangeInto over
// the whole span.
func TestRangeFromChaining(t *testing.T) {
	ft := stripeTable(t, 3*BatchSize+217, 7)
	rng := rand.New(rand.NewSource(11))
	reqs := []ScanRequest{
		{Op: AggSum, Measure: 0, Predicates: []RangePredicate{{Dim: 0, Level: 1, From: 5, To: 30}}},
		{Op: AggMin, Measure: 1, Predicates: []RangePredicate{{Dim: 1, Level: 0, From: 1, To: 4}}},
		{Op: AggMax, Measure: 0},
		{Op: AggAvg, Measure: 1, Predicates: []RangePredicate{{Dim: 2, Level: 0, From: 0, To: 6}}},
		{Op: AggCount, Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 1, To: 2}}},
	}
	for ri, req := range reqs {
		pl := bind1(t, ft, Member{ScanRequest: req})
		whole, err := rangeFrom(pl, State{}, 0, ft.Rows())
		if err != nil {
			t.Fatal(err)
		}
		want := whole.Scalar
		for trial := 0; trial < 20; trial++ {
			// Random sorted cut points, duplicates allowed (empty segments).
			cuts := []int{0, ft.Rows()}
			for len(cuts) < 6 {
				cuts = append(cuts, rng.Intn(ft.Rows()+1))
			}
			sort.Ints(cuts)
			st := State{}
			for i := 0; i+1 < len(cuts); i++ {
				if st, err = rangeFrom(pl, st, cuts[i], cuts[i+1]); err != nil {
					t.Fatal(err)
				}
			}
			acc := st.Scalar
			if acc.Rows != want.Rows || math.Float64bits(acc.Value) != math.Float64bits(want.Value) {
				t.Fatalf("req %d trial %d: chained %+v != whole %+v", ri, trial, acc, want)
			}
		}
	}
}

// TestSnapshotRowRange pins the one logical-row-range → stripe-segments
// walker: segments come in row order with the right stripe index and
// stripe-local rows; empty stripes, empty ranges and stripes the range only
// touches at an edge are never visited.
func TestSnapshotRowRange(t *testing.T) {
	// Stripes of 10, 0, 5, 0 and 7 rows: logical edges 0, 10, 10, 15, 15, 22.
	reg, err := NewRegistry(diffSchema(), stripeTable(t, 10, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range []int{0, 5, 0, 7} {
		if _, err := reg.Publish([]*FactTable{stripeTable(t, rows, int64(2+i))}, StripeDelta, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Current()
	type seg struct{ stripe, lo, hi int }
	cases := []struct {
		name   string
		lo, hi int
		want   []seg
	}{
		{"everything", 0, 22, []seg{{0, 0, 10}, {2, 0, 5}, {4, 0, 7}}},
		{"ends on a stripe edge", 3, 10, []seg{{0, 3, 10}}},
		{"starts on a stripe edge", 10, 12, []seg{{2, 0, 2}}},
		{"edge to edge across empty stripes", 10, 15, []seg{{2, 0, 5}}},
		{"straddles two edges", 8, 17, []seg{{0, 8, 10}, {2, 0, 5}, {4, 0, 2}}},
		{"lo == hi inside a stripe", 4, 4, nil},
		{"lo == hi on an edge", 10, 10, nil},
		{"lo == hi at the end", 22, 22, nil},
		{"clamped to the snapshot", -3, 40, []seg{{0, 0, 10}, {2, 0, 5}, {4, 0, 7}}},
	}
	for _, c := range cases {
		var got []seg
		err := snap.RowRange(c.lo, c.hi, func(stripe int, ft *FactTable, lo, hi int) error {
			if ft != snap.Stripes()[stripe].Table() {
				t.Fatalf("%s: stripe %d came with another stripe's table", c.name, stripe)
			}
			got = append(got, seg{stripe, lo, hi})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("%s: RowRange(%d, %d) visited %v, want %v", c.name, c.lo, c.hi, got, c.want)
		}
	}
	// The first error stops the walk and is returned.
	stop := errors.New("stop")
	visits := 0
	if err := snap.RowRange(0, 22, func(int, *FactTable, int, int) error { visits++; return stop }); !errors.Is(err, stop) || visits != 1 {
		t.Fatalf("error after %d visits: %v", visits, err)
	}
}
