package table

import (
	"testing"
)

func TestSlice(t *testing.T) {
	ft, err := Generate(GenSpec{Schema: PaperSchema(), Rows: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Slice(ft, 250, 750)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 500 {
		t.Fatalf("Rows = %d", s.Rows())
	}
	if s.Dicts() != ft.Dicts() {
		t.Fatal("slice does not share the parent's dictionary set")
	}
	for r := 0; r < s.Rows(); r += 100 {
		if s.CoordAt(r, 0, 2) != ft.CoordAt(250+r, 0, 2) {
			t.Fatalf("row %d: coord mismatch", r)
		}
		if s.MeasureColumn(0)[r] != ft.MeasureColumn(0)[250+r] {
			t.Fatalf("row %d: measure mismatch", r)
		}
		if s.TextColumn(0).At(r) != ft.TextColumn(0).At(250+r) {
			t.Fatalf("row %d: text code mismatch", r)
		}
	}

	// Scanning the slices end to end reproduces the full-table scan for
	// fold-order-insensitive ops.
	req := ScanRequest{Op: AggCount}
	whole, err := scan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	var acc ScanResult
	for _, cut := range [][2]int{{0, 250}, {250, 750}, {750, 1000}} {
		sv, err := Slice(ft, cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		part, err := scan(sv, req)
		if err != nil {
			t.Fatal(err)
		}
		acc = Merge(req.Op, acc, ScanResult{Rows: part.Rows})
	}
	if acc.Rows != whole.Rows {
		t.Fatalf("sliced count %d, whole %d", acc.Rows, whole.Rows)
	}

	for _, bad := range [][2]int{{-1, 5}, {5, 2000}, {700, 600}} {
		if _, err := Slice(ft, bad[0], bad[1]); err == nil {
			t.Errorf("slice [%d,%d) accepted", bad[0], bad[1])
		}
	}
	if empty, err := Slice(ft, 300, 300); err != nil || empty.Rows() != 0 {
		t.Fatalf("empty slice: rows=%v err=%v", empty, err)
	}
}
