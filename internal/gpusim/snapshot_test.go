package gpusim

import (
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
	meas := make([][]int32, len(s.Measures))
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
// stripes (sharing the whole table's dictionaries).
func testSnapshot(t testing.TB, rows int, cuts []int) *table.Snapshot {
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
	return reg.Current()
}

func TestExecuteGroupSnapshotMatchesWholeTable(t *testing.T) {
	d := newTestDevice(t, 64)
	snap := testSnapshot(t, 15000, []int{1, 5000, 5001, 11000})
	reqs := []table.Member{
		{ScanRequest: table.ScanRequest{Op: table.AggSum, Measure: 0},
			GroupBy: []table.GroupCol{{Dim: 0, Level: 0}}},
		{ScanRequest: table.ScanRequest{Op: table.AggAvg, Measure: 1,
			Predicates: []table.RangePredicate{{Dim: 2, Level: 1, From: 3, To: 30}}},
			GroupBy: []table.GroupCol{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}}},
	}
	for ri, req := range reqs {
		_, want := reference(t, snap, req)
		for _, p := range d.Partitions() {
			got, err := execGroups(p, snap, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("req %d partition %d: %d groups, want %d", ri, p.ID(), len(got), len(want))
			}
			for i := range got {
				if table.PackKey(got[i].Keys) != table.PackKey(want[i].Keys) ||
					got[i].Rows != want[i].Rows ||
					math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("req %d partition %d group %d: %+v != %+v", ri, p.ID(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestExecuteSnapshotEdgeCases(t *testing.T) {
	d := newTestDevice(t, 64)
	p := d.Partitions()[0]
	if _, err := execScalar(p, nil, table.ScanRequest{Op: table.AggCount}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := execGroups(p, nil, table.Member{}); err == nil {
		t.Fatal("nil snapshot accepted (grouped)")
	}
	// A tiny snapshot (one short block over three stripes) must still answer.
	snap := testSnapshot(t, 3, []int{1, 2})
	got, err := execScalar(p, snap, table.ScanRequest{Op: table.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := reference(t, snap, table.Member{ScanRequest: table.ScanRequest{Op: table.AggCount}}); got.Rows != want.Rows || got.Value != want.Value {
		t.Fatalf("tiny snapshot: got %+v, want %+v", got, want)
	}
	// Scan errors must propagate, not panic.
	bad := table.ScanRequest{Op: table.AggSum, Measure: 99}
	if _, err := execScalar(p, snap, bad); err == nil {
		t.Fatal("bad measure accepted")
	}
	// ... identically on a snapshot whose only stripe has no rows: every
	// entry point validates before it cuts.
	empty := testSnapshot(t, 0, []int{0})
	if empty.Rows() != 0 || len(empty.Stripes()) == 0 {
		t.Fatalf("fixture: %d rows in %d stripes", empty.Rows(), len(empty.Stripes()))
	}
	if got, err := execScalar(p, empty, table.ScanRequest{Op: table.AggCount}); err != nil || got != (table.ScanResult{}) {
		t.Fatalf("empty snapshot: got %+v, %v", got, err)
	}
	if _, err := execScalar(p, empty, bad); err == nil {
		t.Fatal("bad measure accepted on an empty snapshot")
	}
	if _, err := execGroups(p, empty, table.Member{
		ScanRequest: bad, GroupBy: []table.GroupCol{{Dim: 0, Level: 0}},
	}); err == nil {
		t.Fatal("bad measure accepted on an empty snapshot (grouped)")
	}
}
