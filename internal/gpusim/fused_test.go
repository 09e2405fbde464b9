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

// TestFoldContinuation pins what the result cache's carry stands on: the
// folds ExecuteFused returns at r0 rows, continued over the rows appended
// since (Continue: RangeInto over the tail, Open chained, ended into Full at
// each block edge), are the folds — and finalise to the answers —
// ExecuteFused returns at r1 rows, bit for bit, for every op. The tail
// arrives as two stripes, and block 2 of the table holds only time.hour
// 0..3, so the month-filtered members match no row of it.
func TestFoldContinuation(t *testing.T) {
	const B = BlockRows
	base := testTable(t, 4*B+321)
	s := *base.Schema()
	coords := make([][]uint32, len(s.Dimensions))
	for d, dim := range s.Dimensions {
		coords[d] = base.DimLevelColumn(d, dim.Finest()).AppendTo(nil)
	}
	for r := 2 * B; r < 3*B; r++ {
		coords[0][r] %= 4
	}
	meas := [][]float64{base.MeasureColumn(0), base.MeasureColumn(1)}
	texts := [][]uint32{base.TextColumn(0).AppendTo(nil), base.TextColumn(1).AppendTo(nil)}
	rows := func(lo, hi int) *table.FactTable {
		t.Helper()
		cut := func(cols [][]uint32) [][]uint32 {
			out := make([][]uint32, len(cols))
			for i, c := range cols {
				out[i] = c[lo:hi]
			}
			return out
		}
		ft, err := table.FromColumns(s, cut(coords), [][]float64{meas[0][lo:hi], meas[1][lo:hi]}, cut(texts), base.Dicts())
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	empty := func(op table.AggOp, measure int) table.ScanRequest {
		return table.ScanRequest{Op: op, Measure: measure, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 1, From: 1, To: 31},
			{Dim: 2, Level: 0, From: 0, To: 3},
		}}
	}
	reqs := append(fusedReqs(), empty(table.AggSum, 0), empty(table.AggMin, 1), empty(table.AggMax, 0), empty(table.AggAvg, 1))
	members := make([]table.Member, len(reqs))
	for mi, req := range reqs {
		members[mi] = table.Member{ScanRequest: req}
	}
	p := newTestDevice(t, 1000).Partitions()[1]
	for r, want := range map[[2]int]bool{{2 * B, 3 * B}: false, {B, 2 * B}: true} {
		got, err := table.ScanRange(rows(r[0], r[1]), empty(table.AggCount, 0), 0, r[1]-r[0])
		if err != nil {
			t.Fatal(err)
		}
		if (got.Rows > 0) != want {
			t.Fatalf("the month-filtered members match %d rows of [%d, %d)", got.Rows, r[0], r[1])
		}
	}

	for _, c := range []struct {
		name   string
		r0, r1 int
	}{
		{"tail inside the open block", B + 100, B + 900},
		{"tail ends on a block edge", B + 100, 2 * B},
		{"r0 on a block edge", 2 * B, 2*B + 700},
		{"tail spans blocks, one matching nothing", B + 100, 4*B + 321},
		{"from an empty block's edge over it", 2 * B, 3*B + 5},
	} {
		reg, err := table.NewRegistry(s, rows(0, c.r0), nil)
		if err != nil {
			t.Fatal(err)
		}
		at0 := reg.Current()
		mid := (c.r0 + c.r1) / 2
		if _, err := reg.Publish([]*table.FactTable{rows(c.r0, mid), rows(mid, c.r1)}, table.StripeDelta, nil, nil); err != nil {
			t.Fatal(err)
		}
		at1 := reg.Current()
		before, err := p.ExecuteFused(at0, reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		after, err := p.ExecuteFused(at1, reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		folds := make([]*Fold, len(reqs))
		for mi := range reqs {
			f := *before[mi].Fold
			folds[mi] = &f
		}
		if err := Continue(at1, c.r0, members, folds, make([]table.State, len(members))); err != nil {
			t.Fatal(err)
		}
		for mi, req := range reqs {
			want := after[mi].Fold
			if !bitsEqual(folds[mi].Full, want.Full) || !bitsEqual(folds[mi].Open, want.Open) {
				t.Fatalf("%s, %v member %d: continued fold %+v, fold at %d rows %+v", c.name, req.Op, mi, *folds[mi], c.r1, *want)
			}
			if got := folds[mi].Answer(req.Op, c.r1); !bitsEqual(got, after[mi].Result) {
				t.Fatalf("%s, %v member %d: continued answer %+v, answer at %d rows %+v", c.name, req.Op, mi, got, c.r1, after[mi].Result)
			}
		}
	}
}
