// Package membench measures this implementation the way the paper measured
// its own test system: streaming-aggregation bandwidth over cubes of
// increasing size (Fig. 3), processing time versus sub-cube size for
// different worker counts (Figs. 4–5), GPU partition query time versus the
// fraction of columns accessed (Fig. 8) and dictionary search time versus
// dictionary length (Fig. 9). The resulting points feed perfmodel's
// fitting functions, re-deriving the estimation models from scratch.
package membench

import (
	"fmt"
	"slices"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/dict"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/table"
	"hybridolap/internal/tpcds"
)

// CPUPoint is one cube-processing measurement.
type CPUPoint struct {
	SizeMB       float64
	Seconds      float64
	BandwidthMBs float64
}

// cubeCards shapes a 3-d cube holding approximately the requested number
// of cells: a flat-ish box so the first dimension carries the growth.
func cubeCards(cells int64) []int {
	const b, c = 64, 64
	a := cells / (b * c)
	if a < 1 {
		a = 1
	}
	return []int{int(a), b, c}
}

// CPUSweep measures full-cube aggregation time for each size with the
// given worker count, repeating reps times and keeping the fastest run
// (the paper's benchmarks report steady-state bandwidth, so the cold run
// is discarded the same way).
func CPUSweep(sizesMB []float64, workers, reps int, seed int64) ([]CPUPoint, error) {
	if reps < 1 {
		reps = 1
	}
	out := make([]CPUPoint, 0, len(sizesMB))
	for _, mb := range sizesMB {
		cells := int64(mb * (1 << 20) / cube.CellSize)
		if cells < 1 {
			return nil, fmt.Errorf("membench: size %v MB too small", mb)
		}
		c, err := cube.BuildSynthetic(0, cubeCards(cells), 1.0, seed, cube.Config{Compress: true})
		if err != nil {
			return nil, err
		}
		cards := c.Cards()
		box := cube.Box{
			{From: 0, To: uint32(cards[0] - 1)},
			{From: 0, To: uint32(cards[1] - 1)},
			{From: 0, To: uint32(cards[2] - 1)},
		}
		best := time.Duration(1<<62 - 1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := c.Aggregate(box, workers); err != nil {
				return nil, err
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		actualMB := float64(box.Bytes()) / (1 << 20)
		secs := best.Seconds()
		out = append(out, CPUPoint{
			SizeMB:       actualMB,
			Seconds:      secs,
			BandwidthMBs: perfmodel.BandwidthMBs(actualMB, secs),
		})
	}
	return out, nil
}

// CPUPointsForFit converts a sweep to perfmodel fit points (size → time).
func CPUPointsForFit(pts []CPUPoint) []perfmodel.Point {
	out := make([]perfmodel.Point, len(pts))
	for i, p := range pts {
		out[i] = perfmodel.Point{X: p.SizeMB, Y: p.Seconds}
	}
	return out
}

// DictPoint is one dictionary-search measurement.
type DictPoint struct {
	Entries          int
	SecondsPerLookup float64
}

// DictSweep measures mean per-lookup time of the linear-scan dictionary
// for each size — the cost shape of eq. (17) / Fig. 9. The probe set mixes
// hits across the whole dictionary.
func DictSweep(sizes []int, lookups int) ([]DictPoint, error) {
	if lookups < 1 {
		lookups = 1
	}
	out := make([]DictPoint, 0, len(sizes))
	for _, n := range sizes {
		d, err := tpcds.Dictionary(n, dict.KindLinear, tpcds.CityName)
		if err != nil {
			return nil, err
		}
		probes := make([]string, lookups)
		for i := range probes {
			s, _ := d.Decode(dict.ID((i * 7919) % n))
			probes[i] = s
		}
		t0 := time.Now()
		for _, p := range probes {
			if _, ok := d.Lookup(p); !ok {
				return nil, fmt.Errorf("membench: probe %q missing", p)
			}
		}
		el := time.Since(t0).Seconds()
		out = append(out, DictPoint{Entries: n, SecondsPerLookup: el / float64(lookups)})
	}
	return out, nil
}

// DictPointsForFit converts a dictionary sweep to fit points.
func DictPointsForFit(pts []DictPoint) []perfmodel.Point {
	out := make([]perfmodel.Point, len(pts))
	for i, p := range pts {
		out[i] = perfmodel.Point{X: float64(p.Entries), Y: p.SecondsPerLookup}
	}
	return out
}

// GPUPoint is one simulated-device kernel measurement.
type GPUPoint struct {
	SMs       int
	Columns   int
	Fraction  float64 // C / C_TOT
	Seconds   float64
	Estimated float64 // the calibrated model's prediction, for comparison
}

// GPUSweep measures real wall-clock kernel time on the functional GPU
// simulator for queries touching 1..maxCols columns, per partition width.
// The shape (linear growth with the number of columns scanned, smaller
// slope for wider partitions) mirrors Fig. 8; absolute values are host CPU
// times, not Tesla times. A table with fewer fold-grid blocks than the
// widest partition has SMs is refused: its extra SMs would idle, and the
// per-width fit would be fitting noise.
func GPUSweep(rows int, widths []int, maxCols, reps int, seed int64) ([]GPUPoint, error) {
	if len(widths) > 0 && rows < slices.Max(widths)*gpusim.BlockRows {
		return nil, fmt.Errorf("membench: %d rows leave a %d-SM partition short of one %d-row block per SM",
			rows, slices.Max(widths), gpusim.BlockRows)
	}
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	dev, err := gpusim.NewDevice(gpusim.TeslaC2070())
	if err != nil {
		return nil, err
	}
	if err := dev.LoadTable(ft); err != nil {
		return nil, err
	}
	if err := dev.Partition(widths); err != nil {
		return nil, err
	}
	if reps < 1 {
		reps = 1
	}
	s := ft.Schema()
	total := s.TotalColumns()

	// Predicates in a fixed useful order: one per (dim, level), all
	// full-range so every row passes and the scan streams every column.
	var preds []table.RangePredicate
	for d, dim := range s.Dimensions {
		for l, lv := range dim.Levels {
			preds = append(preds, table.RangePredicate{
				Dim: d, Level: l, From: 0, To: uint32(lv.Cardinality - 1),
			})
		}
	}

	est := perfmodel.PaperEstimator()
	var out []GPUPoint
	for _, p := range dev.Partitions() {
		for nc := 1; nc <= maxCols && nc <= len(preds); nc++ {
			req := table.ScanRequest{Predicates: preds[:nc], Measure: 0, Op: table.AggSum}
			cols := req.ColumnsAccessed()
			estd, err := est.GPUTime(p.SMs(), cols, total)
			if err != nil {
				return nil, err
			}
			best := time.Duration(1<<62 - 1)
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				if _, err := p.Execute(dev.Resident(), req); err != nil {
					return nil, err
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
			out = append(out, GPUPoint{
				SMs:       p.SMs(),
				Columns:   cols,
				Fraction:  float64(cols) / float64(total),
				Seconds:   best.Seconds(),
				Estimated: estd,
			})
		}
	}
	return out, nil
}

// GPUPointsForFit converts the sweep for one SM width to fit points
// (fraction → seconds).
func GPUPointsForFit(pts []GPUPoint, sms int) []perfmodel.Point {
	var out []perfmodel.Point
	for _, p := range pts {
		if p.SMs == sms {
			out = append(out, perfmodel.Point{X: p.Fraction, Y: p.Seconds})
		}
	}
	return out
}
