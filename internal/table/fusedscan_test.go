package table

import (
	"testing"
)

// The fused differential suite: every member of a K-member Plan must
// agree *exactly* — bit-identical values — with the reference kernel
// running that member alone over the same rows, whatever the other
// members are. The kernel visits the same rows in the same ascending order
// per member, so == is the specification.

// TestFusedScanCellsEligibility pins the soundness gate: rounding-order-
// sensitive ops and non-pure-range predicates never get cells.
func TestFusedScanCellsEligibility(t *testing.T) {
	ft := diffTables(t)[3]
	cases := []struct {
		name string
		req  ScanRequest
		want bool
	}{
		{"count pure range", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}}}, true},
		{"min two columns", ScanRequest{Op: AggMin, Measure: 0,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}, {Dim: 1, Level: 1, From: 0, To: 30}}}, true},
		{"sum is order-sensitive", ScanRequest{Op: AggSum, Measure: 0,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}}}, false},
		{"avg is order-sensitive", ScanRequest{Op: AggAvg, Measure: 0,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}}}, false},
		{"text predicate", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Text: true, From: 0, To: 5}}}, false},
		{"or predicate", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 1, Or: []CodeRange{{From: 3, To: 3}}}}}, false},
		{"no predicates", ScanRequest{Op: AggCount}, false},
		{"empty range", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 2, To: 1}}}, true},
		{"one column twice", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}, {Dim: 0, Level: 0, From: 1, To: 3}}}, false},
	}
	for _, c := range cases {
		if _, got := CellShape(&c.req, nil); got != c.want {
			t.Errorf("%s: CellShape=%v want %v", c.name, got, c.want)
		}
		if got := bind1(t, ft, Member{ScanRequest: c.req, Cells: true}).Keyed(0); got != c.want {
			t.Errorf("%s: Keyed=%v want %v", c.name, got, c.want)
		}
		if bind1(t, ft, Member{ScanRequest: c.req}).Keyed(0) {
			t.Errorf("%s: cells granted unasked", c.name)
		}
	}
}

func TestFusedScanIncompatible(t *testing.T) {
	ft := diffTables(t)[3]
	if _, err := Bind(ft, nil); err == nil {
		t.Error("empty member set accepted")
	}
	// Different column sets must be rejected.
	reqs := []Member{
		{ScanRequest: ScanRequest{Op: AggCount, Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}}}},
		{ScanRequest: ScanRequest{Op: AggCount, Predicates: []RangePredicate{{Dim: 1, Level: 0, From: 0, To: 2}}}},
	}
	if _, err := Bind(ft, reqs); err == nil {
		t.Error("mismatched column sets accepted")
	}
	// Same columns, different multiplicity: also incompatible.
	reqs[1].Predicates = []RangePredicate{
		{Dim: 0, Level: 0, From: 0, To: 2}, {Dim: 0, Level: 0, From: 1, To: 2},
	}
	if _, err := Bind(ft, reqs); err == nil {
		t.Error("mismatched column multisets accepted")
	}
	// Validation errors surface from any member.
	reqs[1] = Member{ScanRequest: ScanRequest{Op: AggSum, Measure: 99, Predicates: reqs[0].Predicates}}
	if _, err := Bind(ft, reqs); err == nil {
		t.Error("bad measure accepted")
	}
	// State count is checked per call.
	fused := bind1(t, ft, Member{ScanRequest: ScanRequest{Op: AggCount}})
	if err := fused.RangeInto(0, ft.Rows(), make([]State, 2)); err == nil {
		t.Error("wrong state count accepted")
	}
	if err := fused.RangeInto(-1, 3, make([]State, 1)); err == nil {
		t.Error("negative lo accepted")
	}
}
