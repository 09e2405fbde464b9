package cube

import "testing"

// BenchmarkCubeFold measures the sequential CPU fold per box shape, as
// MB/s of the box's logical bytes (eq. 3's sub-cube size), so a reading
// compares directly against a stream-triad bandwidth. Each cube is
// 256×256×16 = 1M cells (32 MB) in 16×16×16 chunks, beyond the last-level
// cache:
//
//   - whole-dense-full: every chunk whole and fully filled (foldRunFull
//     over the chunk);
//   - whole-dense-partial: whole chunks at fill 0.6 (foldRun, with the
//     per-cell occupancy test);
//   - partial-dense: every chunk partly covered (last dimension 3..12 of
//     16), walked one 10-cell run at a time;
//   - compressed-whole / compressed-partial: fill 0.05, chunk-offset
//     storage, folded whole or decoded one stored offset at a time;
//   - grouped-1key / grouped-2keys: the whole fill-0.6 cube into 64 and
//     64×256 groups.
func BenchmarkCubeFold(b *testing.B) {
	cards := []int{256, 256, 16}
	cubes := map[float64]*Cube{}
	cubeAt := func(fill float64) *Cube {
		if c, ok := cubes[fill]; ok {
			return c
		}
		c, err := BuildSynthetic(0, cards, fill, 8, Config{Compress: true})
		if err != nil {
			b.Fatal(err)
		}
		cubes[fill] = c
		return c
	}
	whole := Box{{From: 0, To: 255}, {From: 0, To: 255}, {From: 0, To: 15}}
	partial := Box{{From: 0, To: 255}, {From: 0, To: 255}, {From: 3, To: 12}}
	cases := []struct {
		name  string
		fill  float64
		box   Box
		specs []GroupSpec
	}{
		{"whole-dense-full", 1.0, whole, nil},
		{"whole-dense-partial", 0.6, whole, nil},
		{"partial-dense", 1.0, partial, nil},
		{"compressed-whole", 0.05, whole, nil},
		{"compressed-partial", 0.05, partial, nil},
		{"grouped-1key", 0.6, whole, []GroupSpec{{Dim: 0, Ratio: 4}}},
		{"grouped-2keys", 0.6, whole, []GroupSpec{{Dim: 0, Ratio: 4}, {Dim: 1, Ratio: 1}}},
	}
	for _, tc := range cases {
		c := cubeAt(tc.fill)
		b.Run("shape="+tc.name, func(b *testing.B) {
			b.SetBytes(tc.box.Bytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if tc.specs == nil {
					_, err = c.Aggregate(tc.box, 1)
				} else {
					_, err = c.AggregateGroups(tc.box, tc.specs, 1)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
