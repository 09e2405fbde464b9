package main

import (
	"fmt"
	"sync"
	"time"

	"hybridolap/internal/membench"
)

// calibration is this machine's score on three fixed loops, measured in
// the benchmark's own process. Absolute ns/row and qps from two machines
// compare only after normalising by it.
type calibration struct {
	cubeStreamGBps float64 // membench: 2-worker aggregation over a 256 MB cube
	triadGBps      float64 // a[i] = b[i] + s*c[i] over arrays far beyond the caches
	scalarNs       float64 // one step of a dependent multiply-add chain
}

// metrics names the three scores as per-layer metrics.
func (c calibration) metrics() map[string]float64 {
	return map[string]float64{
		"membench.cube_stream_gbps": c.cubeStreamGBps,
		"olapload.triad_gbps":       c.triadGBps,
		"olapload.scalar_ns":        c.scalarNs,
	}
}

const (
	calibCubeMB  = 256
	calibReps    = 3
	triadLen     = 16 << 20 // 3 arrays x 128 MB
	scalarSteps  = 100_000_000
	bytesPerGiga = 1e9
)

func calibrate() (calibration, error) {
	var c calibration
	pts, err := membench.CPUSweep([]float64{calibCubeMB}, clients, calibReps, dataSeed)
	if err != nil {
		return c, fmt.Errorf("calibration: %w", err)
	}
	c.cubeStreamGBps = pts[0].SizeMB * (1 << 20) / pts[0].Seconds / bytesPerGiga
	c.triadGBps = triad()
	c.scalarNs = scalarLoop()
	return c, nil
}

// triad is the STREAM triad on `clients` goroutines, best of calibReps.
// Bytes are computed as three 8-byte streams per element (the write's
// read-for-ownership is not counted).
func triad() float64 {
	a, b, c := make([]float64, triadLen), make([]float64, triadLen), make([]float64, triadLen)
	for i := range b {
		b[i], c[i] = float64(i), float64(i>>1)
	}
	best := time.Duration(1<<62 - 1)
	for rep := 0; rep < calibReps; rep++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			lo, hi := w*triadLen/clients, (w+1)*triadLen/clients
			wg.Add(1)
			go func(a, b, c []float64) {
				defer wg.Done()
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			}(a[lo:hi], b[lo:hi], c[lo:hi])
		}
		wg.Wait()
		best = min(best, time.Since(t0))
	}
	return 3 * 8 * float64(triadLen) / best.Seconds() / bytesPerGiga
}

// scalarSink keeps the compiler from deleting scalarLoop's chain.
var scalarSink uint64

// scalarLoop times a chain where every step needs the previous one: a
// latency-bound score, the counterpart of the bandwidth-bound triad.
func scalarLoop() float64 {
	best := time.Duration(1<<62 - 1)
	for rep := 0; rep < calibReps; rep++ {
		x := uint64(rep + 1)
		t0 := time.Now()
		for i := 0; i < scalarSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		best = min(best, time.Since(t0))
		scalarSink += x
	}
	return float64(best.Nanoseconds()) / scalarSteps
}
