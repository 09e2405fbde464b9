package engine

import (
	"fmt"
	"math/rand"
	"sort"

	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/sim"
)

// Arrival describes how queries enter the system model.
type Arrival struct {
	// RatePerSec > 0 spaces arrivals 1/rate apart (an open system);
	// 0 submits everything at t=0 (a saturated batch, which is how a
	// sustained processing rate in queries/second is measured).
	RatePerSec float64
	// Jitter adds ±Jitter fraction of the spacing, drawn from Seed, to
	// avoid metronome artefacts. Ignored for batch and Poisson arrivals.
	Jitter float64
	// Poisson draws exponential inter-arrival gaps with mean 1/RatePerSec
	// instead of fixed spacing — the memoryless arrivals interactive OLAP
	// front-ends actually produce.
	Poisson bool
	// Seed derives the arrival stream's private random source. The zero
	// value is a valid, documented default: every run with Seed 0 (and
	// nil Rng) sees the identical arrival pattern.
	Seed int64
	// Rng, when set, overrides Seed as the arrival stream's source. Inject
	// one to share or sequence sources across experiment stages; RunModel
	// never touches the global math/rand state (enforced by the seededrand
	// analyzer), so olapbench tables are bit-reproducible either way.
	Rng *rand.Rand
}

// Noise perturbs modelled service times so the feedback loop has real work
// to do: actual = estimate × Bias × U[1−Amplitude, 1+Amplitude]. Bias (when
// non-zero) models systematic estimation error — the calibrated functions
// consistently under- or over-predicting — which is the error mode the
// paper's feedback correction exists for.
type Noise struct {
	Amplitude float64
	Bias      float64
	// Seed derives the noise source; 0 is the documented default stream.
	Seed int64
	// Rng, when set, overrides Seed (see Arrival.Rng).
	Rng *rand.Rand
}

// ModelOptions tunes RunModel.
type ModelOptions struct {
	Arrival Arrival
	Noise   Noise
}

// QueryOutcome records one query's modelled life cycle.
type QueryOutcome struct {
	ID          int64
	Queue       sched.QueueRef
	SubmittedAt float64
	FinishedAt  float64
	Deadline    float64
	MetDeadline bool
}

// ModelResult summarises a RunModel execution.
type ModelResult struct {
	Queries     int
	Completed   int
	MetDeadline int
	// MakespanSeconds is the virtual time at which the last query finished.
	MakespanSeconds float64
	// Throughput is Completed / MakespanSeconds — the paper's
	// "queries per second" processing rate.
	Throughput float64
	// MeanLatencySeconds averages submission→completion times.
	MeanLatencySeconds float64
	// P50/P95/P99LatencySeconds are latency percentiles over completions.
	P50LatencySeconds float64
	P95LatencySeconds float64
	P99LatencySeconds float64
	// Utilisation per queue name.
	Utilisation map[string]float64
	// SchedStats snapshots the scheduler's counters.
	SchedStats sched.Stats
	// Outcomes lists per-query records in completion order.
	Outcomes []QueryOutcome
}

// RunModel plays a query stream through the system model on virtual time.
// Each query is estimated, scheduled with the configured policy, and
// serviced by per-partition FIFO servers whose service times are the
// (optionally noised) model estimates. Measured-vs-estimated feedback is
// applied at each completion, as in the paper.
func (s *System) RunModel(queries []*query.Query, opts ModelOptions) (*ModelResult, error) {
	var loop sim.Loop
	cpuSrv := sim.NewServer(&loop, "cpu")
	transSrv := sim.NewServer(&loop, "trans")
	gpuSrv := make([]*sim.Server, len(s.widths))
	for i, w := range s.widths {
		gpuSrv[i] = sim.NewServer(&loop, fmt.Sprintf("gpu%d-%dsm", i, w))
	}

	noiseRng := opts.Noise.Rng
	if noiseRng == nil {
		noiseRng = rand.New(rand.NewSource(opts.Noise.Seed))
	}
	bias := opts.Noise.Bias
	if bias <= 0 {
		bias = 1
	}
	noisy := func(est float64) float64 {
		f := bias
		if opts.Noise.Amplitude > 0 {
			f *= 1 + opts.Noise.Amplitude*(2*noiseRng.Float64()-1)
		}
		if f < 0.01 {
			f = 0.01
		}
		return est * f
	}

	arrRng := opts.Arrival.Rng
	if arrRng == nil {
		arrRng = rand.New(rand.NewSource(opts.Arrival.Seed))
	}
	poissonClock := 0.0
	arrivalAt := func(i int) float64 {
		if opts.Arrival.RatePerSec <= 0 {
			return 0
		}
		if opts.Arrival.Poisson {
			poissonClock += arrRng.ExpFloat64() / opts.Arrival.RatePerSec
			return poissonClock
		}
		base := float64(i) / opts.Arrival.RatePerSec
		if opts.Arrival.Jitter > 0 {
			base += (opts.Arrival.Jitter / opts.Arrival.RatePerSec) * (2*arrRng.Float64() - 1)
			if base < 0 {
				base = 0
			}
		}
		return base
	}

	res := &ModelResult{Queries: len(queries), Utilisation: make(map[string]float64)}
	var firstErr error

	for i, q := range queries {
		q := q
		at := sim.FromSeconds(arrivalAt(i))
		err := loop.Schedule(at, func(now sim.Time) {
			if firstErr != nil {
				return
			}
			nowS := sim.Seconds(now)
			est, err := s.Estimate(q)
			if err != nil {
				firstErr = fmt.Errorf("engine: estimating query %d: %w", q.ID, err)
				return
			}
			s.schedMu.Lock()
			d, err := s.scheduler.Submit(nowS, est)
			s.schedMu.Unlock()
			if err != nil {
				firstErr = fmt.Errorf("engine: scheduling query %d: %w", q.ID, err)
				return
			}

			finish := func(f sim.Time, estSvc, actSvc float64, queue sched.QueueRef) {
				fs := sim.Seconds(f)
				s.schedMu.Lock()
				s.scheduler.Feedback(queue, actSvc-estSvc, fs)
				s.schedMu.Unlock()
				res.Completed++
				met := fs <= d.Deadline
				if met {
					res.MetDeadline++
				}
				res.MeanLatencySeconds += fs - nowS
				if fs > res.MakespanSeconds {
					res.MakespanSeconds = fs
				}
				res.Outcomes = append(res.Outcomes, QueryOutcome{
					ID: q.ID, Queue: queue, SubmittedAt: nowS,
					FinishedAt: fs, Deadline: d.Deadline, MetDeadline: met,
				})
			}

			switch d.Queue.Kind {
			case sched.QueueCPU:
				estSvc := est.CPUSeconds
				actSvc := noisy(estSvc)
				cpuSrv.Submit(sim.FromSeconds(actSvc), func(f sim.Time) {
					finish(f, estSvc, actSvc, d.Queue)
				})
			case sched.QueueGPU:
				i := d.Queue.Index
				estSvc := est.GPUSeconds[i]
				actSvc := noisy(estSvc)
				var gate sim.Time
				if est.NeedsTranslation {
					estTr := est.TransSeconds
					actTr := noisy(estTr)
					// The dedicated design runs translation on its own
					// partition; the ablation serialises it onto the CPU
					// processing server, where it contends with cube
					// aggregation.
					srv := transSrv
					trans := transQueue
					if s.cfg.Sched.Translation == sched.TransOnCPUQueue {
						srv = cpuSrv
						trans = sched.QueueRef{Kind: sched.QueueCPU}
					}
					gate = srv.Submit(sim.FromSeconds(actTr), func(f sim.Time) {
						s.schedMu.Lock()
						s.scheduler.Feedback(trans, actTr-estTr, sim.Seconds(f))
						s.schedMu.Unlock()
					})
				}
				gpuSrv[i].SubmitAfter(gate, sim.FromSeconds(actSvc), func(f sim.Time) {
					finish(f, estSvc, actSvc, d.Queue)
				})
			}
		})
		if err != nil {
			return nil, fmt.Errorf("engine: scheduling arrival %d: %w", i, err)
		}
	}

	loop.Run()
	if firstErr != nil {
		return nil, firstErr
	}

	if res.Completed > 0 {
		res.MeanLatencySeconds /= float64(res.Completed)
		lats := make([]float64, 0, len(res.Outcomes))
		for _, o := range res.Outcomes {
			lats = append(lats, o.FinishedAt-o.SubmittedAt)
		}
		sort.Float64s(lats)
		pct := func(p float64) float64 {
			i := int(p * float64(len(lats)-1))
			return lats[i]
		}
		res.P50LatencySeconds = pct(0.50)
		res.P95LatencySeconds = pct(0.95)
		res.P99LatencySeconds = pct(0.99)
	}
	if res.MakespanSeconds > 0 {
		res.Throughput = float64(res.Completed) / res.MakespanSeconds
	}
	res.Utilisation["cpu"] = cpuSrv.Utilisation()
	res.Utilisation["trans"] = transSrv.Utilisation()
	for i, srv := range gpuSrv {
		res.Utilisation[fmt.Sprintf("gpu[%d]", i)] = srv.Utilisation()
	}
	s.schedMu.Lock()
	res.SchedStats = s.scheduler.Stats()
	s.schedMu.Unlock()
	return res, nil
}
