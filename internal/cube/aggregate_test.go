package cube

import (
	"math"
	"math/rand"
	"testing"
)

// cellwiseAgg is the slowest possible reference: fold every coordinate of
// the box through the public Get accessor, in odometer order — no chunk
// enumeration, no run kernels, no occupancy metadata.
func cellwiseAgg(c *Cube, box Box) Agg {
	var acc Agg
	n := c.Dims()
	coords := make([]uint32, n)
	for d := 0; d < n; d++ {
		coords[d] = box[d].From
	}
	for {
		acc.fold(c.Get(coords))
		d := n - 1
		for d >= 0 {
			coords[d]++
			if coords[d] <= box[d].To {
				break
			}
			coords[d] = box[d].From
			d--
		}
		if d < 0 {
			return acc
		}
	}
}

func cubeAggEqual(a, b Agg) bool {
	if a.Count != b.Count {
		return false
	}
	if a.Count == 0 {
		return true
	}
	// Count, Min and Max are exact under any fold order. Sum regroups:
	// the chunked kernel merges per-chunk partials, the cellwise
	// reference adds in one global odometer order, so the two round
	// differently in the last ulps (true before the specialized kernels
	// too — see aggEqual in cube_test.go).
	return math.Abs(a.Sum-b.Sum) < 1e-6 && a.Min == b.Min && a.Max == b.Max
}

// TestAggregateDifferentialAcrossFills drives the specialized fold kernels
// through every storage form: fill 1.0 produces fully occupied dense
// chunks (the foldRunFull whole-chunk and run paths), 0.6 partially filled
// dense chunks (foldRun with the occupancy test), 0.2 and 0.05 compressed
// chunks (whole-chunk full fold of the cells array, and per-offset
// membership decode). Cards not divisible by the chunk side exercise the
// clamped edge chunks, where "whole" must stay false.
func TestAggregateDifferentialAcrossFills(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fill := range []float64{1.0, 0.6, 0.2, 0.05} {
		for _, cards := range [][]int{{13, 21}, {16, 32}, {9, 10, 11}} {
			c, err := BuildSynthetic(0, cards, fill, 5, Config{ChunkSide: 8, Compress: true})
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 40; trial++ {
				box := make(Box, len(cards))
				for d, card := range cards {
					a, b := uint32(rng.Intn(card)), uint32(rng.Intn(card))
					if a > b {
						a, b = b, a
					}
					box[d] = Range{From: a, To: b}
				}
				want := cellwiseAgg(c, box)
				got, err := c.Aggregate(box, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !cubeAggEqual(want, got) {
					t.Fatalf("fill=%v cards=%v box=%v:\ncellwise=%+v\nchunked =%+v",
						fill, cards, box, want, got)
				}
				// The parallel fold merges per-worker partials; Count,
				// Min and Max stay exact, Sum regroups.
				par, err := c.Aggregate(box, 3)
				if err != nil {
					t.Fatal(err)
				}
				if par.Count != want.Count {
					t.Fatalf("parallel count %d != %d", par.Count, want.Count)
				}
				if want.Count != 0 && (par.Min != want.Min || par.Max != want.Max) {
					t.Fatalf("parallel min/max diverged: %+v vs %+v", par, want)
				}
			}
		}
	}
}

// TestAggregateFullChunkWholeBox pins the foldRunFull whole-chunk path: a
// fill-1.0 cube whose cards are exact multiples of the chunk side, queried
// with the all-covering box, visits every chunk as whole and fully
// occupied.
func TestAggregateFullChunkWholeBox(t *testing.T) {
	cards := []int{16, 32}
	c, err := BuildSynthetic(0, cards, 1.0, 9, Config{ChunkSide: 8, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.FilledCells() != int64(16*32) {
		t.Fatalf("expected fully filled cube, got %d cells", c.FilledCells())
	}
	box := Box{{From: 0, To: 15}, {From: 0, To: 31}}
	want := cellwiseAgg(c, box)
	got, err := c.Aggregate(box, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cubeAggEqual(want, got) {
		t.Fatalf("whole-box full-chunk fold diverged:\ncellwise=%+v\nchunked =%+v", want, got)
	}
	if got.Count != int64(16*32) {
		t.Fatalf("count %d, want every cell", got.Count)
	}
}

// raceEnabled is set by race_enabled_test.go under -race, where the
// detector's instrumentation (and sync.Pool's race hooks) make
// AllocsPerRun meaningless.
var raceEnabled = false

// TestAggregateSteadyStateAllocs pins the pooled chunk enumeration: after
// warmup, a sequential Aggregate allocates nothing — no per-chunk local
// Box, no per-call work-item slice.
func TestAggregateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := BuildSynthetic(0, []int{48, 48}, 0.7, 3, Config{ChunkSide: 8, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	box := Box{{From: 3, To: 44}, {From: 5, To: 40}}
	if _, err := c.Aggregate(box, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Aggregate(box, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sequential Aggregate allocates %v objects/op; want 0", allocs)
	}
}

// TestAggregateGroupsAllocsFlatInChunks pins the grouped walk's
// allocation profile: a sequential AggregateGroups allocates for its group
// map, never per chunk, so a 64-chunk box costs what a 4-chunk box with the
// same groups costs.
func TestAggregateGroupsAllocsFlatInChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := BuildSynthetic(0, []int{64, 64}, 0.7, 3, Config{ChunkSide: 8, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	// Ratio 64 folds either box into the one group (0, 0).
	specs := []GroupSpec{{Dim: 0, Ratio: 64}, {Dim: 1, Ratio: 64}}
	allocs := func(box Box) float64 {
		if _, err := c.AggregateGroups(box, specs, 1); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := c.AggregateGroups(box, specs, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(Box{{From: 0, To: 15}, {From: 0, To: 15}})
	large := allocs(Box{{From: 0, To: 63}, {From: 0, To: 63}})
	if large != small {
		t.Fatalf("sequential AggregateGroups allocates %v objects/op over 64 chunks, %v over 4; want the same", large, small)
	}
}
