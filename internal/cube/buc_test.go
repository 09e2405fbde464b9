package cube

import (
	"testing"
)

// bruteIceberg computes the full lattice by enumeration.
func bruteIceberg(t *testing.T, ft interface {
	Rows() int
	CoordAt(r, d, l int) uint32
	MeasureColumn(m int) []int32
}, level int, dims int, lvl []int, minSup int) map[[5]int32]Agg {
	t.Helper()
	out := map[[5]int32]Agg{}
	meas := ft.MeasureColumn(0)
	// Enumerate all masks.
	for mask := 0; mask < 1<<dims; mask++ {
		groups := map[[5]int32]Agg{}
		for r := 0; r < ft.Rows(); r++ {
			var key [5]int32
			key[4] = int32(mask)
			for d := 0; d < dims; d++ {
				if mask&(1<<d) != 0 {
					key[d] = int32(ft.CoordAt(r, d, lvl[d]))
				} else {
					key[d] = -1
				}
			}
			var c Cell
			c.add(meas[r])
			a := groups[key]
			a.fold(c)
			groups[key] = a
		}
		for k, a := range groups {
			if a.Count >= int64(minSup) {
				out[k] = a
			}
		}
	}
	return out
}

func TestBUCMatchesBruteForce(t *testing.T) {
	ft := genTable(t, 300, 91)
	minSup := 3
	ic, err := BuildIceberg(ft, 0, 0, minSup)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteIceberg(t, ft, 0, 2, []int{0, 0}, minSup)
	if ic.NumCells() != len(want) {
		t.Fatalf("cells = %d, want %d", ic.NumCells(), len(want))
	}
	for k, w := range want {
		coords := []int32{k[0], k[1]}
		got, ok := ic.Get(coords)
		if !ok {
			t.Fatalf("cell %v missing", coords)
		}
		if !aggEqual(got, w) {
			t.Fatalf("cell %v: %+v vs %+v", coords, got, w)
		}
	}
}

func TestBUCApexAndPruning(t *testing.T) {
	ft := genTable(t, 500, 92)
	minSup := 10
	ic, err := BuildIceberg(ft, 1, 0, minSup)
	if err != nil {
		t.Fatal(err)
	}
	// Apex covers every row.
	if got := ic.Apex(); got.Count != 500 {
		t.Fatalf("apex count = %d", got.Count)
	}
	if ic.MinSup() != minSup {
		t.Fatalf("MinSup = %d", ic.MinSup())
	}
	// No materialised cell has support below minSup (except the apex,
	// which by definition has all rows).
	small, err := BuildIceberg(ft, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning strictly reduces (or keeps) the lattice size.
	if ic.NumCells() >= small.NumCells() {
		t.Fatalf("minSup=%d has %d cells, minSup=1 has %d", minSup, ic.NumCells(), small.NumCells())
	}
}

func TestBUCMonotonePruning(t *testing.T) {
	ft := genTable(t, 400, 93)
	prev := 1 << 30
	for _, ms := range []int{1, 2, 5, 20, 100} {
		ic, err := BuildIceberg(ft, 1, 0, ms)
		if err != nil {
			t.Fatal(err)
		}
		if ic.NumCells() > prev {
			t.Fatalf("minSup=%d grew the lattice: %d > %d", ms, ic.NumCells(), prev)
		}
		prev = ic.NumCells()
	}
}

func TestBUCAgreesWithDenseCube(t *testing.T) {
	// Fully-grouped cells of the iceberg (mask = all dims) with minSup 1
	// must equal the dense cube's cells.
	ft := genTable(t, 600, 94)
	ic, err := BuildIceberg(ft, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BuildFromTable(ft, 1, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cards := dense.Cards()
	checked := 0
	for x := 0; x < cards[0]; x++ {
		for y := 0; y < cards[1]; y++ {
			cell := dense.Get([]uint32{uint32(x), uint32(y)})
			agg, ok := ic.Get([]int32{int32(x), int32(y)})
			if cell.Count == 0 {
				if ok {
					t.Fatalf("iceberg has phantom cell (%d,%d)", x, y)
				}
				continue
			}
			if !ok {
				t.Fatalf("iceberg missing cell (%d,%d)", x, y)
			}
			w := Agg{Sum: cell.Sum, Count: cell.Count, Min: cell.Min, Max: cell.Max}
			if !aggEqual(agg, w) {
				t.Fatalf("cell (%d,%d): %+v vs %+v", x, y, agg, w)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cells compared")
	}
}

func TestBUCValidation(t *testing.T) {
	ft := genTable(t, 10, 95)
	if _, err := BuildIceberg(ft, 0, 9, 1); err == nil {
		t.Fatal("bad measure accepted")
	}
	if _, err := BuildIceberg(ft, 0, 0, 0); err == nil {
		t.Fatal("zero minSup accepted")
	}
	ic, _ := BuildIceberg(ft, 0, 0, 1)
	if _, ok := ic.Get([]int32{0}); ok {
		t.Fatal("wrong-arity Get accepted")
	}
}

func BenchmarkBUCBuild(b *testing.B) {
	ft := genTable(b, 20_000, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIceberg(ft, 1, 0, 5); err != nil {
			b.Fatal(err)
		}
	}
}
