package cube

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hybridolap/internal/table"
)

// foldDigestWant is the FNV-64a digest of every answer foldDigest
// computes. It pins the CPU fold trees bit for bit: a chunk's cells fold
// into a chunk partial that merges into the worker's partial (scalar), cells
// fold straight into the worker's group map (grouped), and workers merge in
// worker order. A change to any of those trees moves a Sum in its last ulps
// and this value with it.
const foldDigestWant = 0x4687482e762f6e9e

// foldDigest runs Aggregate and AggregateGroups over a seeded corpus —
// fully filled and partly filled dense chunks, compressed chunks, edge
// chunks clamped at the cardinality, whole and partly covered boxes, one
// and two group keys, 1, 3 and 8 workers — and hashes Float64bits of
// Sum/Min/Max plus Count of every answer.
func foldDigest(t *testing.T) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putAgg := func(a Agg) {
		put(math.Float64bits(a.Sum))
		put(math.Float64bits(a.Min))
		put(math.Float64bits(a.Max))
		put(uint64(a.Count))
	}
	rng := rand.New(rand.NewSource(27))
	for _, fill := range []float64{1.0, 0.6, 0.05} {
		for ci, cards := range [][]int{{13, 21}, {16, 32}, {9, 10, 11}} {
			c, err := BuildSynthetic(0, cards, fill, int64(100+ci), Config{ChunkSide: 8, Compress: true})
			if err != nil {
				t.Fatal(err)
			}
			last := len(cards) - 1
			specSets := [][]GroupSpec{
				{{Dim: 0, Ratio: 3}},
				{{Dim: last, Ratio: 5}, {Dim: 0, Ratio: 2}},
			}
			boxes := []Box{make(Box, len(cards))}
			for d, card := range cards {
				boxes[0][d] = Range{From: 0, To: uint32(card - 1)}
			}
			for trial := 0; trial < 10; trial++ {
				box := make(Box, len(cards))
				for d, card := range cards {
					a, b := uint32(rng.Intn(card)), uint32(rng.Intn(card))
					if a > b {
						a, b = b, a
					}
					box[d] = Range{From: a, To: b}
				}
				boxes = append(boxes, box)
			}
			for _, box := range boxes {
				for _, workers := range []int{1, 3, 8} {
					a, err := c.Aggregate(box, workers)
					if err != nil {
						t.Fatal(err)
					}
					putAgg(a)
					for _, specs := range specSets {
						m, err := c.AggregateGroups(box, specs, workers)
						if err != nil {
							t.Fatal(err)
						}
						keys := make([]table.GroupKey, 0, len(m))
						for k := range m {
							keys = append(keys, k)
						}
						sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
						put(uint64(len(keys)))
						for _, k := range keys {
							put(uint64(k))
							putAgg(m[k])
						}
					}
				}
			}
		}
	}
	return h.Sum64()
}

// TestFoldDigest pins every CPU answer of the corpus to the bits recorded
// when the digest was committed.
func TestFoldDigest(t *testing.T) {
	if got := foldDigest(t); got != foldDigestWant {
		t.Fatalf("fold digest %#x, want %#x: a CPU fold tree changed", got, uint64(foldDigestWant))
	}
}
