package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hybridolap/internal/engine"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// fusionFile is where MultiQueryFusion drops its machine-readable result.
const fusionFile = "BENCH_fusion.json"

// fusionCase is one row of the serving sweep, as persisted to
// BENCH_fusion.json.
type fusionCase struct {
	Case            string  `json:"case"`
	FanIn           int     `json:"fan_in"`
	Serving         bool    `json:"serving"` // fusion window + result cache on
	QPS             float64 `json:"qps"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
	FusedJobs       int64   `json:"fused_jobs"`
	FusedMembers    int64   `json:"fused_members"`
	CacheHits       int64   `json:"cache_hits"`
	SubsumptionHits int64   `json:"subsumption_hits"`
	SpeedupVsOff    float64 `json:"speedup_vs_off,omitempty"`
}

type fusionReport struct {
	Experiment      string       `json:"experiment"`
	Rows            int          `json:"rows"`
	QueriesPerCase  int          `json:"queries_per_case"`
	DeadlineSeconds float64      `json:"deadline_seconds"`
	Seed            int64        `json:"seed"`
	Results         []fusionCase `json:"results"`
}

// fusionWorkload precomputes each worker's query stream so the serving-on
// and serving-off runs of one fan-in case answer the identical workload.
// Every query filters the same (time.day, geo.state) column pair — one
// compatibility family, the shape a dashboard fleet produces — at level 2,
// below the materialised cubes, so all of them are GPU-bound. Roughly half
// the stream repeats a small hot-template pool (result-cache food); the
// rest are fresh random intervals, some of which nest inside the wide
// templates (subsumption food).
func fusionWorkload(seed int64, workers, perWorker int) (streams [][]*query.Query, anchors []*query.Query) {
	ops := []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg}
	mk := func(rng *rand.Rand, op table.AggOp, wide bool) *query.Query {
		sub := func(card int) (uint32, uint32) {
			if wide {
				return 0, uint32(card - 1)
			}
			lo := rng.Intn(card)
			return uint32(lo), uint32(lo + rng.Intn(card-lo))
		}
		f0, t0 := sub(256)
		f1, t1 := sub(128)
		meas := rng.Intn(2)
		if op == table.AggCount {
			meas = 0 // count(*): the measure is irrelevant to the answer
		}
		return &query.Query{
			Conditions: []query.Condition{
				{Dim: 0, Level: 2, From: f0, To: t0},
				{Dim: 1, Level: 2, From: f1, To: t1},
			},
			Measure: meas,
			Op:      op,
		}
	}

	// Wide anchors: one full-range template per subsumable (op, measure)
	// pair — the dashboard "overview" queries whose cached cells answer
	// every narrower count/min/max by an exact interval fold. They are
	// served once during warm-up (cell passes are expensive; steady-state
	// serving is what the timed run measures), not replayed in the streams.
	for _, a := range []struct {
		op   table.AggOp
		meas int
	}{
		{table.AggCount, 0},
		{table.AggMin, 0}, {table.AggMin, 1},
		{table.AggMax, 0}, {table.AggMax, 1},
	} {
		q := mk(rand.New(rand.NewSource(seed)), a.op, true)
		q.Measure = a.meas
		anchors = append(anchors, q)
	}

	pool := make([]*query.Query, 24)
	prng := rand.New(rand.NewSource(seed))
	for i := range pool {
		pool[i] = mk(prng, ops[i%len(ops)], false)
	}

	streams = make([][]*query.Query, workers)
	for w := range streams {
		rng := rand.New(rand.NewSource(seed + 1000*int64(w+1)))
		qs := make([]*query.Query, perWorker)
		for i := range qs {
			if rng.Intn(2) == 0 {
				qs[i] = pool[rng.Intn(len(pool))].Clone()
			} else {
				qs[i] = mk(rng, ops[rng.Intn(len(ops))], false)
			}
			qs[i].ID = int64(w*perWorker + i)
		}
		streams[w] = qs
	}
	return streams, anchors
}

// MultiQueryFusion measures the high-QPS serving path: for each target
// fan-in F, F concurrent clients replay the same compatible-query workload
// against a system with the fusion window + result cache off, then on.
// Off, every query books and scans alone; on, windows of up to F
// compatible queries execute as one shared scan and repeats come back from
// the epoch-keyed cache. Results land in BENCH_fusion.json.
func MultiQueryFusion(opts Options) (*Table, error) {
	// Quick mode keeps the FULL row count and shrinks only the query count:
	// at small tables the per-query fixed overheads dominate the scan cost
	// and the serving-on/off QPS ratio no longer resembles the full-scale
	// ratio — which is exactly the number `olapbench -compare` gates on.
	rows := 100_000
	perCase := opts.pick(6_400, 3_072)
	const deadline = 1.0

	t := &Table{
		ID:      "fusion",
		Title:   "Shared scans, multi-query fusion and result cache",
		Columns: []string{"case", "qps", "p50 ms", "p99 ms", "deadline-hit", "fused jobs", "cache hits", "speedup"},
		Notes: []string{
			fmt.Sprintf("%d rows, %d queries per case, deadline %.1fs; machine-readable copy in %s",
				rows, perCase, deadline, fusionFile),
			"off = every query books and scans alone; on = fusion window + epoch-keyed result cache",
			"one compatibility family (time.day x geo.state), ~50% hot-template repeats",
		},
	}
	report := fusionReport{
		Experiment: "fusion", Rows: rows, QueriesPerCase: perCase,
		DeadlineSeconds: deadline, Seed: opts.seed(),
	}

	for _, fanIn := range []int{1, 4, 16, 64} {
		perWorker := perCase / fanIn
		streams, anchors := fusionWorkload(opts.seed()+int64(fanIn), fanIn, perWorker)
		total := fanIn * perWorker

		var offQPS float64
		for _, serving := range []bool{false, true} {
			// Fullness at half the fleet: duplicate members coalesce inside
			// the fused job so big windows are cheap, but a window that can
			// swallow EVERY client would park the whole fleet on its timer.
			// Closing at fanIn/2 keeps at least half the clients serving
			// while a window gathers.
			maxFan := fanIn / 2
			if maxFan < 1 {
				maxFan = 1
			}
			sys, err := engine.Setup(engine.SetupSpec{
				Rows: rows, Seed: opts.seed(),
				DeadlineSeconds: deadline,
				Fusion:          serving,
				FusionWindow:    200 * time.Microsecond,
				FusionMaxFanIn:  maxFan,
				Cache:           serving,
			})
			if err != nil {
				return nil, err
			}
			// Warm-up, both modes for symmetry: the wide anchors run once
			// before the clock starts, so the timed run measures steady-state
			// serving (with the anchors' cells resident when the cache is on).
			for _, a := range anchors {
				if _, err := sys.Serve(a.Clone()); err != nil {
					return nil, err
				}
			}

			lats := make([][]time.Duration, fanIn)
			var wg sync.WaitGroup
			var mu sync.Mutex
			var firstErr error
			start := time.Now()
			for w := 0; w < fanIn; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ls := make([]time.Duration, 0, perWorker)
					for _, q := range streams[w] {
						out, err := sys.Serve(q.Clone())
						if err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = fmt.Errorf("worker %d query %d: %w", w, q.ID, err)
							}
							mu.Unlock()
							return
						}
						ls = append(ls, out.Latency)
					}
					lats[w] = ls
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			if firstErr != nil {
				return nil, firstErr
			}

			all := make([]time.Duration, 0, total)
			hit := 0
			for _, ls := range lats {
				for _, l := range ls {
					if l.Seconds() <= deadline {
						hit++
					}
				}
				all = append(all, ls...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			pct := func(p float64) float64 {
				i := int(p * float64(len(all)-1))
				return float64(all[i].Microseconds()) / 1000
			}

			st := sys.Scheduler().Stats()
			cs := sys.CacheStats()
			c := fusionCase{
				FanIn: fanIn, Serving: serving,
				QPS:             float64(total) / elapsed.Seconds(),
				P50Ms:           pct(0.50),
				P99Ms:           pct(0.99),
				DeadlineHitRate: float64(hit) / float64(total),
				FusedJobs:       st.FusedJobs,
				FusedMembers:    st.FusedMembers,
				CacheHits:       cs.Hits,
				SubsumptionHits: cs.SubsumptionHits,
			}
			mode := "off"
			if serving {
				mode = "on"
				if offQPS > 0 {
					c.SpeedupVsOff = c.QPS / offQPS
				}
			} else {
				offQPS = c.QPS
			}
			c.Case = fmt.Sprintf("fan-in=%d serving=%s", fanIn, mode)

			speedup := ""
			if c.SpeedupVsOff > 0 {
				speedup = fmt.Sprintf("%.2fx", c.SpeedupVsOff)
			}
			t.Rows = append(t.Rows, []string{
				c.Case, f(c.QPS), f(c.P50Ms), f(c.P99Ms),
				fmt.Sprintf("%.3f", c.DeadlineHitRate),
				fmt.Sprint(c.FusedJobs), fmt.Sprint(c.CacheHits + c.SubsumptionHits), speedup,
			})
			report.Results = append(report.Results, c)
		}
	}

	t.Baseline = &report
	return t, nil
}
