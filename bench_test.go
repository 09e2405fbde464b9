package olap

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations. Each iteration regenerates the experiment at quick scale via
// the same code path as `cmd/olapbench`; run the binary for the full-scale
// reproduction with paper-vs-measured output.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"hybridolap/internal/engine"
	"hybridolap/internal/experiments"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id, experiments.Options{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkTable1CPURate regenerates Table 1: CPU cube processing rate for
// the {4KB, 512KB, 512MB} cube set at 1/4/8 threads.
func BenchmarkTable1CPURate(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2LargeCube regenerates Table 2: the rate with the 32GB
// cube added.
func BenchmarkTable2LargeCube(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3HybridRate regenerates Table 3: the full hybrid system
// under the Fig. 10 scheduler.
func BenchmarkTable3HybridRate(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTranslationOverhead regenerates the Sec. IV text-translation
// overhead measurement (paper: ~7% GPU slowdown).
func BenchmarkTranslationOverhead(b *testing.B) { benchExperiment(b, "translation") }

// BenchmarkFig3Bandwidth regenerates Fig. 3: memory bandwidth vs cube size
// for 1/4/8 workers.
func BenchmarkFig3Bandwidth(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4Sweep4T regenerates Fig. 4: processing time vs sub-cube
// size at 4 workers with the two-piece model fit.
func BenchmarkFig4Sweep4T(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5Sweep8T regenerates Fig. 5: the 8-worker characteristic.
func BenchmarkFig5Sweep8T(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig8GPUPartitions regenerates Fig. 8: GPU partition query time
// vs C/C_TOT for 1/2/4 SM partitions.
func BenchmarkFig8GPUPartitions(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9DictSearch regenerates Fig. 9: dictionary search time vs
// dictionary length.
func BenchmarkFig9DictSearch(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkAblationPlacement compares GPU queue placement orders.
func BenchmarkAblationPlacement(b *testing.B) { benchExperiment(b, "ablation-placement") }

// BenchmarkAblationTranslationPartition compares the dedicated translation
// partition against inline translation on the CPU queue.
func BenchmarkAblationTranslationPartition(b *testing.B) { benchExperiment(b, "ablation-translation") }

// BenchmarkAblationFeedback compares the estimation feedback on and off.
func BenchmarkAblationFeedback(b *testing.B) { benchExperiment(b, "ablation-feedback") }

// BenchmarkAblationGlobalDict compares per-column vs global dictionaries.
func BenchmarkAblationGlobalDict(b *testing.B) { benchExperiment(b, "ablation-globaldict") }

// BenchmarkAblationPartitionLayout compares GPU partition layouts.
func BenchmarkAblationPartitionLayout(b *testing.B) { benchExperiment(b, "ablation-layout") }

// BenchmarkBatchHeuristics compares the Fig. 10 on-line algorithm against
// Braun et al.'s Min-Min and Max-Min batch heuristics.
func BenchmarkBatchHeuristics(b *testing.B) { benchExperiment(b, "batch-heuristics") }

// BenchmarkTranslationAlgorithms regenerates the future-work translation
// algorithm comparison.
func BenchmarkTranslationAlgorithms(b *testing.B) { benchExperiment(b, "translation-algos") }

// BenchmarkRealEngineBatch measures the real-execution engine end to end:
// 64 mixed queries answered as one Batch — 64 concurrent Serve calls,
// scheduled and answered on actual cubes, dictionaries and simulated-GPU
// scans.
func BenchmarkRealEngineBatch(b *testing.B) {
	sys, err := engine.Setup(engine.SetupSpec{Rows: 20_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := query.NewGenerator(query.GenConfig{
		Schema:        sys.Config().Table.Schema(),
		Seed:          2,
		Dicts:         sys.Config().Table.Dicts(),
		TextProb:      0.3,
		LevelWeights:  []float64{0.4, 0.4, 0.2},
		MeasureChoice: []int{0},
		Ops:           []table.AggOp{table.AggSum, table.AggCount},
	})
	if err != nil {
		b.Fatal(err)
	}
	qs := gen.Batch(64)
	db := FromSystem(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Batch(qs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSoloMiss measures the serving path with nobody to fuse
// with: unique GPU-bound queries from one goroutine, fusion on with a 1 ms
// window, 100K rows. A window that closes on idle costs about one kernel
// (~0.2 ms on a 2-core box); a reintroduced fixed wait reads as ns/op > 1 ms.
func BenchmarkServeSoloMiss(b *testing.B) {
	sys, err := engine.Setup(engine.SetupSpec{
		Rows: 100_000, Seed: 1, Fusion: true, FusionWindow: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Level-2 conditions sit below the {0,1} cube set: GPU-bound.
		lo := uint32(rng.Intn(200))
		q := &query.Query{
			Conditions: []query.Condition{
				{Dim: 0, Level: 2, From: lo, To: lo + uint32(rng.Intn(56))},
				{Dim: 1, Level: 2, From: 0, To: uint32(rng.Intn(128))},
			},
			Op: table.AggSum,
		}
		out, err := sys.Serve(q)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Fused || out.FanIn != 1 {
			b.Fatalf("want a fused job of one, got %+v", out)
		}
	}
}

// BenchmarkServeCPUBypass measures the serving path's other solo route: a
// cube-answerable query, which bypasses the fusion window and goes
// estimate → Submit → cube walk → Feedback on the caller's goroutine.
// Fusion on, cache off (every call must execute), 100K rows; the cube walk
// itself is a few µs, so this reads the per-query cost of the attempt loop.
func BenchmarkServeCPUBypass(b *testing.B) {
	sys, err := engine.Setup(engine.SetupSpec{Rows: 100_000, Seed: 1, Fusion: true})
	if err != nil {
		b.Fatal(err)
	}
	q := &query.Query{
		Conditions: []query.Condition{{Dim: 0, Level: 1, From: 2, To: 9}},
		Op:         table.AggSum,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sys.Serve(q)
		if err != nil {
			b.Fatal(err)
		}
		if out.Queue.Kind != sched.QueueCPU || out.Fused {
			b.Fatalf("want a CPU bypass, got %+v", out)
		}
	}
}

// BenchmarkOpen measures what a start costs before the first query:
// Open with olapd's serving defaults (fusion with a 1 ms window and
// fan-in 64, result cache on) — generating the fact table and its
// dictionaries, building the level-0/1 cube set and loading the device.
// The live arm opens 500K rows over a fresh WAL each iteration, so it
// reads Open's live setup without any replay. Reports ms/op beside
// allocs/op.
func BenchmarkOpen(b *testing.B) {
	serving := Options{Seed: 1, Fusion: true, FusionWindow: time.Millisecond,
		FusionMaxFanIn: 64, ResultCache: true}
	b.Run("rows=1M", func(b *testing.B) {
		opts := serving
		opts.Rows = 1_000_000
		benchOpen(b, func(int) Options { return opts })
	})
	b.Run("rows=500K/live-wal", func(b *testing.B) {
		dir := b.TempDir()
		benchOpen(b, func(i int) Options {
			opts := serving
			opts.Rows = 500_000
			opts.WALPath = filepath.Join(dir, fmt.Sprintf("wal-%d", i))
			return opts
		})
	})
}

func benchOpen(b *testing.B, opts func(i int) Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := Open(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}

// BenchmarkModelEngine10k measures the discrete-event system model:
// 10 000 scheduled queries on virtual time per iteration.
func BenchmarkModelEngine10k(b *testing.B) {
	sys, err := engine.Setup(engine.SetupSpec{
		Rows: 2_000, Seed: 1, VirtualLevels: []int{2, 3},
		VirtualDictLens: map[string]int{"store_name": 100_000},
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := query.NewGenerator(query.GenConfig{
		Schema:        sys.Config().Table.Schema(),
		Seed:          2,
		Dicts:         sys.Config().Table.Dicts(),
		TextProb:      0.3,
		MeasureChoice: []int{0},
	})
	if err != nil {
		b.Fatal(err)
	}
	qs := gen.Batch(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh system per iteration keeps queue clocks comparable.
		sys, err := engine.Setup(engine.SetupSpec{
			Rows: 2_000, Seed: 1, VirtualLevels: []int{2, 3},
			VirtualDictLens: map[string]int{"store_name": 100_000},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunModel(qs, engine.ModelOptions{
			Arrival: engine.Arrival{RatePerSec: 500},
		}); err != nil {
			b.Fatal(err)
		}
	}
	_ = sched.PolicyPaper
}

// BenchmarkServeHit measures a cache hit end to end, from SQL text to
// Result through DB.ServeQuery: parse, validate, translate, the cache's key
// and lookup, and the Result. exact replays a stored answer; the subsumed
// arms fold a count from a full-range anchor's cells over a 4×4 and a
// 200×100 box of (time.day, geo.state) codes, so they add the fold's cost
// per cell. Serving defaults (fusion, 1 ms window, result cache), 100K rows:
// the hit path does not depend on the table's size.
func BenchmarkServeHit(b *testing.B) {
	db, err := Open(Options{Rows: 100_000, Seed: 1, Fusion: true,
		FusionWindow: time.Millisecond, FusionMaxFanIn: 64, ResultCache: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ServeQuery("SELECT count(*) WHERE time.day BETWEEN 0 AND 255 AND geo.state BETWEEN 0 AND 127"); err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name, sql string
		subsumed  bool
	}{
		{"exact", "SELECT sum(sales) WHERE time.day BETWEEN 17 AND 140 AND geo.state BETWEEN 3 AND 90", false},
		{"subsumed=4x4", "SELECT count(*) WHERE time.day BETWEEN 40 AND 43 AND geo.state BETWEEN 10 AND 13", true},
		{"subsumed=200x100", "SELECT count(*) WHERE time.day BETWEEN 20 AND 219 AND geo.state BETWEEN 5 AND 104", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			if _, err := db.ServeQuery(arm.sql); err != nil { // stores the exact arm's entry
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.ServeQuery(arm.sql)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Route.Cached || res.Route.Subsumed != arm.subsumed {
					b.Fatalf("want a cache hit (subsumed %v), got %+v", arm.subsumed, res.Route)
				}
			}
		})
	}
}
