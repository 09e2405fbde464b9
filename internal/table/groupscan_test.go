package table

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPackUnpackKey(t *testing.T) {
	coords := []uint32{7, 0, 65535, 12}
	k := PackKey(coords)
	back := UnpackKey(k, len(coords))
	for i := range coords {
		if back[i] != coords[i] {
			t.Fatalf("round trip %v -> %v", coords, back)
		}
	}
}

func TestPackKeyProperty(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		coords := []uint32{uint32(a), uint32(b), uint32(c), uint32(d)}
		back := UnpackKey(PackKey(coords), 4)
		for i := range coords {
			if back[i] != coords[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupScanAllOps(t *testing.T) {
	ft, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 500, Seed: 42})
	for _, op := range []AggOp{AggSum, AggCount, AggMin, AggMax, AggAvg} {
		req := Member{
			ScanRequest: ScanRequest{Measure: 0, Op: op},
			GroupBy:     []GroupCol{{Dim: 1, Level: 0}},
		}
		rows, err := groupScan(ft, req)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		// The per-group results must reconcile with a scalar scan filtered
		// to that group.
		for _, r := range rows {
			scalar, err := scan(ft, ScanRequest{
				Predicates: []RangePredicate{{Dim: 1, Level: 0, From: r.Keys[0], To: r.Keys[0]}},
				Measure:    0, Op: op,
			})
			if err != nil {
				t.Fatal(err)
			}
			if scalar.Rows != r.Rows || math.Abs(scalar.Value-r.Value) > 1e-9 {
				t.Fatalf("%v group %v: grouped (%v,%d) vs scalar (%v,%d)",
					op, r.Keys, r.Value, r.Rows, scalar.Value, scalar.Rows)
			}
		}
	}
}

func TestGroupScanByTextColumn(t *testing.T) {
	ft, err := Generate(GenSpec{Schema: smallSchema(), Rows: 400, Seed: 43,
		TextPools: [][]string{{"ash", "birch", "cedar"}}})
	if err != nil {
		t.Fatal(err)
	}
	req := Member{
		ScanRequest: ScanRequest{Measure: 0, Op: AggCount},
		GroupBy:     []GroupCol{{Text: true, TextIndex: 0}},
	}
	rows, err := groupScan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rows))
	}
	var total int64
	for _, r := range rows {
		total += r.Rows
	}
	if total != 400 {
		t.Fatalf("rows sum to %d", total)
	}
}

func TestGroupScanStripeMergeEquivalence(t *testing.T) {
	ft, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 1500, Seed: 44})
	req := Member{
		ScanRequest: ScanRequest{Measure: 0, Op: AggAvg},
		GroupBy:     []GroupCol{{Dim: 0, Level: 0}},
	}
	whole, err := groupScan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	var acc Groups
	for lo := 0; lo < ft.Rows(); lo += 217 {
		hi := lo + 217
		if hi > ft.Rows() {
			hi = ft.Rows()
		}
		part, err := planRange(ft, req, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		acc = MergeGroups(req.Op, acc, part.Groups)
	}
	merged := FinalizeGroups(req.Op, ft.Schema().MeasureScale(0), acc, 1)
	if len(merged) != len(whole) {
		t.Fatalf("groups %d vs %d", len(merged), len(whole))
	}
	for i := range whole {
		if merged[i].Rows != whole[i].Rows || math.Float64bits(merged[i].Value) != math.Float64bits(whole[i].Value) {
			t.Fatalf("group %d differs: %+v vs %+v", i, merged[i], whole[i])
		}
	}
}

func TestGroupScanValidation(t *testing.T) {
	ft, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 10, Seed: 45})
	bad := []Member{
		{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: make([]GroupCol, 5)},            // too many
		{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: []GroupCol{{Dim: 9}}},           // bad dim
		{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: []GroupCol{{Dim: 0, Level: 9}}}, // bad level
		{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: []GroupCol{{Text: true, TextIndex: 9}}},
		{ScanRequest: ScanRequest{Op: AggSum, Measure: 9}, GroupBy: []GroupCol{{Dim: 0}}},
	}
	for i, req := range bad {
		if _, err := groupScan(ft, req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestGroupColumnsAccessed(t *testing.T) {
	req := Member{
		ScanRequest: ScanRequest{
			Predicates: []RangePredicate{{Dim: 0, Level: 0}},
			Op:         AggSum,
		},
		GroupBy: []GroupCol{{Dim: 1, Level: 0}, {Dim: 0, Level: 1}},
	}
	// 1 predicate + 1 measure + 2 group columns.
	if got := req.ColumnsAccessed(); got != 4 {
		t.Fatalf("ColumnsAccessed = %d, want 4", got)
	}
}
