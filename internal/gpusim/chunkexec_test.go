package gpusim

import (
	"math"
	"testing"

	"hybridolap/internal/table"
)

// fixedGrid cuts [0, rows) into n chunks the way the cluster coordinator
// does: boundaries floor(i*rows/n).
func fixedGrid(rows, n int) []ChunkRange {
	chunks := make([]ChunkRange, n)
	for i := range chunks {
		chunks[i] = ChunkRange{Lo: i * rows / n, Hi: (i + 1) * rows / n}
	}
	return chunks
}

func TestExecuteChunksDeterminism(t *testing.T) {
	const rows = 50_000
	d := newTestDevice(t, rows)
	p := d.Partitions()[0]
	req := table.ScanRequest{
		Predicates: []table.RangePredicate{{Dim: 0, Level: 2, From: 10, To: 200}},
		Measure:    0, Op: table.AggSum,
	}
	grid := fixedGrid(rows, 16)
	first, err := p.ExecuteChunks(table.Member{ScanRequest: req}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 16 {
		t.Fatalf("%d partials", len(first))
	}
	// Chunk partials are a pure function of the chunk's rows: repeated
	// runs — and runs on a different partition width — are bit-identical.
	for run := 0; run < 3; run++ {
		p2 := d.Partitions()[run%len(d.Partitions())]
		again, err := p2.ExecuteChunks(table.Member{ScanRequest: req}, grid)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i].Scalar.Rows != again[i].Scalar.Rows ||
				math.Float64bits(first[i].Scalar.Value) != math.Float64bits(again[i].Scalar.Value) {
				t.Fatalf("run %d chunk %d: partial drifted", run, i)
			}
		}
	}
	// The chunk-order fold finalizes to the plain scan's row count (sum
	// bits may differ from the single-accumulator scan's fold tree, but
	// the count is exact).
	var acc table.ScanResult
	for _, part := range first {
		acc = table.Merge(req.Op, acc, part.Scalar)
	}
	ft := testTable(t, rows)
	want, err := table.Scan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Rows != want.Rows {
		t.Fatalf("folded rows %d, scan %d", acc.Rows, want.Rows)
	}
	if math.Abs(table.Finalize(req.Op, acc).Value-want.Value) > 1e-6*math.Abs(want.Value) {
		t.Fatalf("folded sum %v, scan %v", table.Finalize(req.Op, acc).Value, want.Value)
	}
}

func TestExecuteGroupChunksDeterminism(t *testing.T) {
	const rows = 30_000
	d := newTestDevice(t, rows)
	p := d.Partitions()[0]
	req := table.GroupScanRequest{
		ScanRequest: table.ScanRequest{Measure: 0, Op: table.AggCount},
		GroupBy:     []table.GroupCol{{Dim: 0, Level: 0}},
	}
	grid := fixedGrid(rows, 8)
	m, err := table.GroupMember(req)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.ExecuteChunks(m, grid)
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.Partitions()[1].ExecuteChunks(m, grid)
	if err != nil {
		t.Fatal(err)
	}
	var a, b table.Groups
	for i := range first {
		a = table.MergeGroups(req.Op, a, first[i].Groups)
		b = table.MergeGroups(req.Op, b, again[i].Groups)
	}
	ra := table.FinalizeGroups(req.Op, a, len(req.GroupBy))
	rb := table.FinalizeGroups(req.Op, b, len(req.GroupBy))
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("group rows: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Rows != rb[i].Rows || ra[i].Keys[0] != rb[i].Keys[0] {
			t.Fatalf("group row %d drifted across partitions", i)
		}
	}
}

func TestExecuteChunksEmptyAndErrors(t *testing.T) {
	const rows = 1_000
	d := newTestDevice(t, rows)
	p := d.Partitions()[0]
	req := table.Member{ScanRequest: table.ScanRequest{Op: table.AggCount}}
	// Empty chunks contribute zero partials; out-of-range chunks error.
	parts, err := p.ExecuteChunks(req, []ChunkRange{{Lo: 10, Hi: 10}, {Lo: 0, Hi: rows}})
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Scalar.Rows != 0 || parts[1].Scalar.Rows != int64(rows) {
		t.Fatalf("partials %+v", parts)
	}
	if _, err := p.ExecuteChunks(req, []ChunkRange{{Lo: 0, Hi: rows + 1}}); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
}
