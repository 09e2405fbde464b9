package gpusim

import (
	"fmt"
	"math"
	"testing"

	"hybridolap/internal/table"
)

// sliceTable materialises rows [lo, hi) of whole as a table of its own,
// sharing whole's dictionaries.
func sliceTable(t testing.TB, whole *table.FactTable, lo, hi int) *table.FactTable {
	t.Helper()
	s := *whole.Schema()
	coords := make([][]uint32, len(s.Dimensions))
	for d, dim := range s.Dimensions {
		coords[d] = whole.DimLevelColumn(d, dim.Finest()).AppendTo(nil)[lo:hi]
	}
	meas := make([][]float64, len(s.Measures))
	for m := range meas {
		meas[m] = whole.MeasureColumn(m)[lo:hi]
	}
	texts := make([][]uint32, len(s.Texts))
	for x := range texts {
		texts[x] = whole.TextColumn(x).AppendTo(nil)[lo:hi]
	}
	ft, err := table.FromColumns(s, coords, meas, texts, whole.Dicts())
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// testSnapshot splits one generated table into a base stripe plus delta
// stripes (sharing the whole table's dictionaries), so snapshot answers
// can be compared against whole-table answers.
func testSnapshot(t testing.TB, rows int, cuts []int) (*table.Snapshot, *table.FactTable) {
	t.Helper()
	whole := testTable(t, rows)
	s := *whole.Schema()
	slice := func(lo, hi int) *table.FactTable { return sliceTable(t, whole, lo, hi) }
	reg, err := table.NewRegistry(s, slice(0, cuts[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := cuts[0]
	for _, c := range cuts[1:] {
		if _, err := reg.Publish([]*table.FactTable{slice(prev, c)}, table.StripeDelta, nil, nil); err != nil {
			t.Fatal(err)
		}
		prev = c
	}
	if prev != rows {
		if _, err := reg.Publish([]*table.FactTable{slice(prev, rows)}, table.StripeDelta, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return reg.Current(), whole
}

// TestExecuteStripesDifferential is the one-stripe ≡ k-stripe ≡ reference
// differential over every op × partition width. The device's resident
// (one-stripe) snapshot and a k-stripe snapshot of the same rows both
// answer count/min/max exactly like the row-at-a-time table.Scan (sum/avg
// within the fold-tree epsilon); a fused member answers bit-for-bit like
// the same request run solo; and two solo runs of a request are
// bit-identical (TestPlacementFree pins the same across partitions and
// stripings).
func TestExecuteStripesDifferential(t *testing.T) {
	const rows = 20000
	d := newTestDevice(t, rows)
	striped, whole := testSnapshot(t, rows, []int{7000, 7003, 12000, 19999})
	// The first len(family) requests are one fusion family (every op, one
	// predicate-column set); the rest vary the predicate shape solo-only.
	family := fusedReqs()
	reqs := append(family[:len(family):len(family)],
		table.ScanRequest{Op: table.AggCount},
		table.ScanRequest{Op: table.AggMin, Measure: 1},
		table.ScanRequest{Op: table.AggMax, Measure: 0, Predicates: []table.RangePredicate{
			{Dim: 1, Level: 0, From: 0, To: 2}}},
		table.ScanRequest{Op: table.AggAvg, Measure: 1, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 0, From: 1, To: 3}}})
	wantCells := make([]bool, len(family))
	wantCells[1] = true
	snaps := []struct {
		name string
		snap *table.Snapshot
	}{{"resident", d.Resident()}, {"striped", striped}}
	for _, sn := range snaps {
		for _, p := range d.Partitions() {
			fused, err := p.ExecuteFused(sn.snap, family, wantCells)
			if err != nil {
				t.Fatal(err)
			}
			for mi, req := range reqs {
				where := fmt.Sprintf("%s partition %d (%d SMs) %v request %d", sn.name, p.ID(), p.SMs(), req.Op, mi)
				want, err := table.Scan(whole, req)
				if err != nil {
					t.Fatal(err)
				}
				solo, err := p.Execute(sn.snap, req)
				if err != nil {
					t.Fatal(err)
				}
				again, err := p.Execute(sn.snap, req)
				if err != nil {
					t.Fatal(err)
				}
				if solo != again {
					t.Fatalf("%s: solo runs differ: %+v vs %+v", where, solo, again)
				}
				if mi < len(family) && fused[mi].Result != solo {
					t.Fatalf("%s: fused=%+v solo=%+v", where, fused[mi].Result, solo)
				}
				switch req.Op {
				case table.AggSum, table.AggAvg:
					if solo.Rows != want.Rows || math.Abs(solo.Value-want.Value) > 1e-6 {
						t.Fatalf("%s: got (%v,%d), want (%v,%d)", where, solo.Value, solo.Rows, want.Value, want.Rows)
					}
				default:
					if solo != want {
						t.Fatalf("%s: got %+v, reference %+v", where, solo, want)
					}
				}
			}
		}
	}
}

func TestExecuteGroupSnapshotMatchesWholeTable(t *testing.T) {
	d := newTestDevice(t, 64)
	snap, whole := testSnapshot(t, 15000, []int{1, 5000, 5001, 11000})
	reqs := []table.GroupScanRequest{
		{ScanRequest: table.ScanRequest{Op: table.AggSum, Measure: 0},
			GroupBy: []table.GroupCol{{Dim: 0, Level: 0}}},
		{ScanRequest: table.ScanRequest{Op: table.AggAvg, Measure: 1,
			Predicates: []table.RangePredicate{{Dim: 2, Level: 1, From: 3, To: 30}}},
			GroupBy: []table.GroupCol{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}}},
	}
	for ri, req := range reqs {
		want, err := table.GroupScan(whole, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.Partitions() {
			got, err := p.ExecuteGroup(snap, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("req %d partition %d: %d groups, want %d", ri, p.ID(), len(got), len(want))
			}
			for i := range got {
				if table.PackKey(got[i].Keys) != table.PackKey(want[i].Keys) ||
					got[i].Rows != want[i].Rows ||
					math.Abs(got[i].Value-want[i].Value) > 1e-6 {
					t.Fatalf("req %d partition %d group %d: %+v != %+v", ri, p.ID(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestExecuteSnapshotEdgeCases(t *testing.T) {
	d := newTestDevice(t, 64)
	p := d.Partitions()[0]
	if _, err := p.Execute(nil, table.ScanRequest{Op: table.AggCount}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := p.ExecuteGroup(nil, table.GroupScanRequest{}); err == nil {
		t.Fatal("nil snapshot accepted (grouped)")
	}
	// A tiny snapshot (one short block over three stripes) must still answer.
	snap, whole := testSnapshot(t, 3, []int{1, 2})
	got, err := p.Execute(snap, table.ScanRequest{Op: table.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.Scan(whole, table.ScanRequest{Op: table.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Value != want.Value {
		t.Fatalf("tiny snapshot: got %+v, want %+v", got, want)
	}
	// Scan errors must propagate, not panic.
	bad := table.ScanRequest{Op: table.AggSum, Measure: 99}
	if _, err := p.Execute(snap, bad); err == nil {
		t.Fatal("bad measure accepted")
	}
	// ... identically on a snapshot whose only stripe has no rows: every
	// entry point validates before it cuts.
	empty, _ := testSnapshot(t, 0, []int{0})
	if empty.Rows() != 0 || len(empty.Stripes()) == 0 {
		t.Fatalf("fixture: %d rows in %d stripes", empty.Rows(), len(empty.Stripes()))
	}
	if got, err := p.Execute(empty, table.ScanRequest{Op: table.AggCount}); err != nil || got != (table.ScanResult{}) {
		t.Fatalf("empty snapshot: got %+v, %v", got, err)
	}
	if _, err := p.Execute(empty, bad); err == nil {
		t.Fatal("bad measure accepted on an empty snapshot")
	}
	if _, err := p.ExecuteGroup(empty, table.GroupScanRequest{
		ScanRequest: bad, GroupBy: []table.GroupCol{{Dim: 0, Level: 0}},
	}); err == nil {
		t.Fatal("bad measure accepted on an empty snapshot (grouped)")
	}
	if _, err := p.ExecuteFused(empty, []table.ScanRequest{bad}, nil); err == nil {
		t.Fatal("bad measure accepted on an empty snapshot (fused)")
	}
	if _, err := p.ExecuteFused(empty, fusedReqs(), []bool{true}); err == nil {
		t.Fatal("mismatched cell flags accepted on an empty snapshot (fused)")
	}
}
