package gpusim

import (
	"math"
	"testing"

	"hybridolap/internal/table"
)

// fusedReqs is a compatible family over one column set (time.month ×
// product.category) spanning every op, plus a zero-match member.
func fusedReqs() []table.ScanRequest {
	set := func(mFrom, mTo, cFrom, cTo uint32) []table.RangePredicate {
		return []table.RangePredicate{
			{Dim: 0, Level: 1, From: mFrom, To: mTo},
			{Dim: 2, Level: 0, From: cFrom, To: cTo},
		}
	}
	return []table.ScanRequest{
		{Op: table.AggSum, Measure: 0, Predicates: set(0, 23, 2, 7)},
		{Op: table.AggCount, Predicates: set(4, 40, 0, 9)},
		{Op: table.AggMin, Measure: 1, Predicates: set(10, 30, 1, 4)},
		{Op: table.AggMax, Measure: 0, Predicates: set(0, 47, 3, 3)},
		{Op: table.AggAvg, Measure: 1, Predicates: set(20, 25, 0, 5)},
		{Op: table.AggCount, Predicates: set(5, 4, 0, 9)}, // inverted: matches nothing
	}
}

func bitsEqual(a, b table.ScanResult) bool {
	return a.Rows == b.Rows && math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// TestExecuteFusedMatchesExecute pins the headline property: each member
// of a fused kernel gets a bit-identical answer to running that member
// alone on the same partition — including cell-granted members, whose
// folded cells must reproduce the scalar bits exactly.
func TestExecuteFusedMatchesExecute(t *testing.T) {
	d := newTestDevice(t, 20000)
	reqs := fusedReqs()
	wantCells := make([]bool, len(reqs))
	for mi, req := range reqs {
		wantCells[mi] = req.Op != table.AggSum && req.Op != table.AggAvg
	}
	for _, p := range d.Partitions() {
		fused, err := p.ExecuteFused(d.Resident(), reqs, wantCells)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(reqs) {
			t.Fatalf("partition %d: %d answers for %d members", p.ID(), len(fused), len(reqs))
		}
		for mi, req := range reqs {
			want, err := p.Execute(d.Resident(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(fused[mi].Result, want) {
				t.Fatalf("partition %d member %d: fused=%+v solo=%+v", p.ID(), mi, fused[mi].Result, want)
			}
			if wantCells[mi] && fused[mi].Cells == nil {
				t.Fatalf("partition %d member %d: cells requested but nil", p.ID(), mi)
			}
			if !wantCells[mi] && fused[mi].Cells != nil {
				t.Fatalf("partition %d member %d: cells granted without request", p.ID(), mi)
			}
		}
	}
}

func TestExecuteFusedValidation(t *testing.T) {
	d := newTestDevice(t, 1000)
	p := d.Partitions()[0]
	if _, err := p.ExecuteFused(d.Resident(), nil, nil); err == nil {
		t.Error("empty member set accepted")
	}
	incompatible := []table.ScanRequest{
		{Op: table.AggCount, Predicates: []table.RangePredicate{{Dim: 0, Level: 0, From: 0, To: 1}}},
		{Op: table.AggCount, Predicates: []table.RangePredicate{{Dim: 1, Level: 0, From: 0, To: 1}}},
	}
	if _, err := p.ExecuteFused(d.Resident(), incompatible, nil); err == nil {
		t.Error("incompatible members accepted")
	}
	if _, err := p.ExecuteFused(nil, fusedReqs(), nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}
