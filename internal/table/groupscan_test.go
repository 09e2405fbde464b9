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

func TestGroupScanMatchesBruteForce(t *testing.T) {
	ft, err := Generate(GenSpec{Schema: smallSchema(), Rows: 2000, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	req := Member{
		ScanRequest: ScanRequest{
			Predicates: []RangePredicate{{Dim: 0, Level: 1, From: 0, To: 17}},
			Measure:    0, Op: AggSum,
		},
		GroupBy: []GroupCol{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}},
	}
	rows, err := GroupScan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force.
	type key struct{ y, r uint32 }
	want := map[key]ScanResult{}
	for i := 0; i < ft.Rows(); i++ {
		if ft.CoordAt(i, 0, 1) > 17 {
			continue
		}
		k := key{ft.CoordAt(i, 0, 0), ft.CoordAt(i, 1, 0)}
		acc := want[k]
		acc.Rows++
		acc.Value += ft.MeasureColumn(0)[i]
		want[k] = acc
	}
	if len(rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[key{r.Keys[0], r.Keys[1]}]
		if !ok {
			t.Fatalf("unexpected group %v", r.Keys)
		}
		if r.Rows != w.Rows || math.Abs(r.Value-w.Value) > 1e-9 {
			t.Fatalf("group %v: got (%v,%d) want (%v,%d)", r.Keys, r.Value, r.Rows, w.Value, w.Rows)
		}
	}
	// Sorted by key.
	for i := 1; i < len(rows); i++ {
		if PackKey(rows[i-1].Keys) >= PackKey(rows[i].Keys) {
			t.Fatal("groups not sorted")
		}
	}
}

func TestGroupScanAllOps(t *testing.T) {
	ft, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 500, Seed: 42})
	for _, op := range []AggOp{AggSum, AggCount, AggMin, AggMax, AggAvg} {
		req := Member{
			ScanRequest: ScanRequest{Measure: 0, Op: op},
			GroupBy:     []GroupCol{{Dim: 1, Level: 0}},
		}
		rows, err := GroupScan(ft, req)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		// The per-group results must reconcile with a scalar scan filtered
		// to that group.
		for _, r := range rows {
			scalar, err := Scan(ft, ScanRequest{
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
	rows, err := GroupScan(ft, req)
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
	whole, err := GroupScan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	var acc Groups
	for lo := 0; lo < ft.Rows(); lo += 217 {
		hi := lo + 217
		if hi > ft.Rows() {
			hi = ft.Rows()
		}
		part, err := GroupScanRange(ft, req, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		acc = MergeGroups(req.Op, acc, part)
	}
	merged := FinalizeGroups(req.Op, acc, 1)
	if len(merged) != len(whole) {
		t.Fatalf("groups %d vs %d", len(merged), len(whole))
	}
	for i := range whole {
		if merged[i].Rows != whole[i].Rows || math.Abs(merged[i].Value-whole[i].Value) > 1e-9 {
			t.Fatalf("group %d differs: %+v vs %+v", i, merged[i], whole[i])
		}
	}
}

func TestGroupScanValidation(t *testing.T) {
	ft, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 10, Seed: 45})
	bad := []Member{
		{ScanRequest: ScanRequest{Op: AggCount}},                                          // no group cols
		{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: make([]GroupCol, 5)},            // too many
		{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: []GroupCol{{Dim: 9}}},           // bad dim
		{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: []GroupCol{{Dim: 0, Level: 9}}}, // bad level
		{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: []GroupCol{{Text: true, TextIndex: 9}}},
		{ScanRequest: ScanRequest{Op: AggSum, Measure: 9}, GroupBy: []GroupCol{{Dim: 0}}},
	}
	for i, req := range bad {
		if _, err := GroupScan(ft, req); err == nil {
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
