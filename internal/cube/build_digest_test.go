package cube

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hybridolap/internal/table"
)

// buildDigestWant is the FNV-64a digest of every cube buildDigest builds
// at one Workers value. It pins BuildFromTable bit for bit. Cells hold
// integer measure units, so which rows each worker folds and the order the
// partial cubes merge in cannot move a bit: every Workers value builds the
// same cells. Recorded when measures became decimal units (the float64
// cells' sums depended on the row stripes).
const buildDigestWant = 0x4b06a81d8d94e0a0

// buildDigest builds cube sets from two generated tables — PaperSchema
// (power-of-two roll-ups) and the test schema (fanouts 12 and 10, with a
// level beyond the finest that clamps) — at the given Workers and chunk
// sides 16 and 5, and hashes each cube's geometry, counters, storage
// bytes, and Float64bits of Sum/Min/Max plus Count of every cell.
func buildDigest(t *testing.T, workers int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	paper, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: 100_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := genTable(t, 20_000, 4)
	for _, src := range []struct {
		ft     *table.FactTable
		levels []int
	}{{paper, []int{0, 1}}, {small, []int{0, 1, 2}}} {
		for _, side := range []int{0, 5} {
			{
				set, err := BuildSet(src.ft, src.levels, 0, Config{Workers: workers, ChunkSide: side})
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range src.levels {
					c, _ := set.Get(l)
					put(uint64(c.FilledCells()))
					put(uint64(c.Rows()))
					put(uint64(c.StorageBytes()))
					for _, card := range c.Cards() {
						put(uint64(card))
					}
					coords := make([]uint32, len(c.Cards()))
					var walk func(d int)
					walk = func(d int) {
						if d == len(coords) {
							cell := c.Get(coords)
							put(math.Float64bits(cell.Sum))
							put(math.Float64bits(cell.Min))
							put(math.Float64bits(cell.Max))
							put(uint64(cell.Count))
							return
						}
						for x := 0; x < c.Cards()[d]; x++ {
							coords[d] = uint32(x)
							walk(d + 1)
						}
					}
					walk(0)
				}
			}
		}
	}
	return h.Sum64()
}

// TestBuildDigest pins every cell BuildFromTable builds to the bits
// recorded when the digest was committed, at Workers 1, 2 and 7 alike.
func TestBuildDigest(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		if got := buildDigest(t, workers); got != buildDigestWant {
			t.Fatalf("Workers=%d: build digest %#x, want %#x: a cube build changed", workers, got, uint64(buildDigestWant))
		}
	}
}
