// Package engine assembles the hybrid OLAP system: the columnar fact table
// and its dictionaries on the (simulated) GPU, the multi-resolution cube
// set in CPU memory, the performance estimator and the Fig. 10 scheduler.
//
// Two execution modes share the same scheduler and estimation path:
//
//   - RunModel drives a discrete-event simulation on virtual time, using
//     the calibrated performance functions as service times. This is the
//     paper's own evaluation method (Sec. IV: "we have developed a system
//     model ... based on characteristics extracted from performance
//     measurements") and is what reproduces the throughput tables.
//
//   - The real path executes every query for real: actual cubes are
//     aggregated, actual dictionaries translated and the actual fact table
//     scanned, at laptop scale on the wall clock. One inline attempt loop
//     (real.go) carries a query from booking to answer, and Serve is its
//     one entry point: a batch is N concurrent Serve calls. It exists to
//     prove functional correctness end to end: both paths return
//     identical answers.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/ingest"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// Config assembles a System.
type Config struct {
	// Table is the fact table resident in (simulated) GPU memory.
	Table *table.FactTable
	// Cubes is the CPU-side multi-resolution cube set. May be nil for a
	// GPU-only system.
	Cubes *cube.Set
	// Device is the simulated GPU; it must already have the table loaded
	// and a partition layout installed.
	Device *gpusim.Device
	// Estimator supplies the CPU/GPU/dictionary models. Defaults to the
	// paper's published models.
	Estimator *perfmodel.Estimator
	// CPUThreads selects the CPU model (1, 4 or 8 with the paper
	// estimator) and the real-mode aggregation parallelism.
	CPUThreads int
	// Sched configures the scheduling policy; GPUWidths is filled in from
	// the device layout.
	Sched sched.Config
	// VirtualDictLens overrides per-column dictionary lengths D_L used in
	// translation-time estimation — the dictionary analogue of virtual
	// cube levels, letting the system model carry paper-scale dictionaries
	// (hundreds of thousands of entries) over a laptop-scale table. Only
	// estimation consults it; Serve translates against the real
	// dictionaries. Columns not present fall back to the real length.
	VirtualDictLens map[string]int
	// Live attaches a streaming ingest store: queries pin an epoch
	// snapshot at bind time and answer over base + delta stripes, text
	// translates against the store's growing append dictionaries, and the
	// CPU path aggregates the pinned epoch's incrementally maintained cube
	// set. Table must be the store's base-stripe table (the epoch-0 base).
	Live *ingest.Store
	// Faults installs a chaos plan: the device consults it at every kernel
	// launch (fault.GPUExec) and the translation path at every dictionary
	// lookup batch (fault.DictLookup). Nil runs fault-free.
	Faults *fault.Plan
	// MaxRetries bounds how many times a failed GPU attempt is re-booked
	// through the scheduler before the query is reported failed (default 2;
	// negative disables retries).
	MaxRetries int
	// FusionEnabled turns on the Serve fusion window: compatible GPU-bound
	// queries inside Serve together are booked and executed as one fused
	// job of up to FusionMaxFanIn members.
	FusionEnabled bool
	// FusionWindow is an upper bound on how long the first arrival holds
	// the window open (default 1ms wall clock): the window closes as soon
	// as no request can still join, and never later than the tightest
	// member's deadline allows.
	FusionWindow time.Duration
	// FusionMaxFanIn closes the window early once this many members joined
	// (default 64).
	FusionMaxFanIn int
	// CacheEnabled turns on the epoch-keyed result cache consulted and
	// populated by Serve.
	CacheEnabled bool
	// CacheMaxEntries bounds the cache (default DefaultCacheMaxEntries).
	CacheMaxEntries int
}

// System is a runnable hybrid OLAP engine.
type System struct {
	cfg       Config
	scheduler *sched.Scheduler
	// pricer is held by pointer: a 48-byte value here moves the hot
	// fields behind it (fusionMu, arriving) across cache lines, and
	// scan_cold read ≈ 0.93× the qps in paired runs.
	pricer *Pricer

	// start anchors nowS, the one clock every real-path scheduler call
	// reads, so bookings from concurrent Serve calls compare consistently
	// against the queue clocks and T_Q drains.
	start time.Time

	// cache is the epoch-keyed result cache (nil when disabled).
	cache *resultCache

	// fusionMu guards the open fusion windows (one per compatibility key).
	fusionMu     sync.Mutex
	fusionGroups map[string]*fusionGroup
	// arriving counts Serve calls between entry and window-join, bypass or
	// return — the calls that could still join an open window; holding
	// counts leaders waiting on them. See holdWindow and settle.
	arriving atomic.Int64
	holding  atomic.Int64

	// fusionFallbacks counts members of failed fused jobs (booking or
	// execution) that were sent back through the individual retry path —
	// the fused path's fault-tolerance cost, one count per member.
	fusionFallbacks atomic.Int64
}

// FusionFallbacks reports how many fused-job members have fallen back to
// individual execution after a failed booking or shared scan.
func (s *System) FusionFallbacks() int64 { return s.fusionFallbacks.Load() }

// New validates the wiring and builds the scheduler.
func New(cfg Config) (*System, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("engine: config needs a fact table")
	}
	if cfg.Device == nil {
		return nil, fmt.Errorf("engine: config needs a device")
	}
	if cfg.Device.Table() != cfg.Table {
		return nil, fmt.Errorf("engine: device has a different table loaded")
	}
	parts := cfg.Device.Partitions()
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: device has no partition layout")
	}
	Defaults{CPUThreads: &cfg.CPUThreads, MaxRetries: &cfg.MaxRetries, Estimator: &cfg.Estimator}.Fill()
	widths := make([]int, len(parts))
	for i, p := range parts {
		widths[i] = p.SMs()
	}
	pricer, err := NewPricer(cfg.Estimator, cfg.CPUThreads, widths, cfg.Table.Schema(), cfg.Cubes != nil)
	if err != nil {
		return nil, err
	}
	if cfg.Live != nil {
		ls := cfg.Live.Schema()
		ts := cfg.Table.Schema()
		if len(ls.Dimensions) != len(ts.Dimensions) || len(ls.Measures) != len(ts.Measures) ||
			len(ls.Texts) != len(ts.Texts) {
			return nil, fmt.Errorf("engine: live store schema does not match the device table")
		}
	}
	if cfg.Faults != nil {
		cfg.Device.SetFaults(cfg.Faults)
	}
	if cfg.FusionWindow <= 0 {
		cfg.FusionWindow = time.Millisecond
	}
	if cfg.FusionMaxFanIn <= 0 {
		cfg.FusionMaxFanIn = 64
	}
	cfg.Sched.GPUWidths = widths
	s, err := sched.New(cfg.Sched)
	if err != nil {
		return nil, err
	}
	sys := &System{
		cfg:          cfg,
		scheduler:    s,
		pricer:       pricer,
		start:        time.Now(),
		fusionGroups: make(map[string]*fusionGroup),
	}
	if cfg.CacheEnabled {
		sys.cache = newResultCache(cfg.CacheMaxEntries)
	}
	return sys, nil
}

// Scheduler exposes the scheduler (telemetry, tests); it is safe for
// concurrent use beside Serve.
func (s *System) Scheduler() *sched.Scheduler { return s.scheduler }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Estimate runs step 2 of Fig. 10 for one query: T_CPU and T_GPU per
// partition from the pricer, T_TRANS from P_DICT (eqs. 16–18).
func (s *System) Estimate(q *query.Query) (sched.Estimates, error) {
	est, err := s.pricer.Price(q, s.cfg.Cubes)
	if err != nil {
		return sched.Estimates{}, err
	}
	est.NeedsTranslation = q.NeedsTranslation()
	if est.NeedsTranslation {
		var lens []int
		for i := range q.TextConds {
			tc := &q.TextConds[i]
			if tc.Translated {
				continue
			}
			n, ok := s.cfg.VirtualDictLens[tc.Column]
			if !ok {
				// Live systems price translation against the growing
				// append dictionaries.
				n = s.dicts().DictLen(tc.Column)
			}
			for k := 0; k < tc.Lookups(); k++ {
				lens = append(lens, n)
			}
		}
		est.TransSeconds = s.cfg.Estimator.TransTime(lens)
	}
	return est, nil
}

// AnswerOnCPU answers a scalar query from the cube set (the CPU
// partition's work) at the current epoch, using the configured aggregation
// parallelism.
func (s *System) AnswerOnCPU(q *query.Query) (table.ScanResult, error) {
	a, err := s.cpuAnswer(q, s.pin())
	return a.Result, err
}

// AnswerOnGPU answers a (translated) scalar query on a specific GPU
// partition at the current epoch.
func (s *System) AnswerOnGPU(q *query.Query, partition int) (table.ScanResult, error) {
	a, err := s.gpuAnswer(q, partition, s.pin())
	return a.Result, err
}

// Reference answers a query by a sequential full scan of the current
// epoch — the ground truth both partitions must agree with.
func (s *System) Reference(q *query.Query) (table.ScanResult, error) {
	r, _, err := s.reference(q, s.pin())
	return r, err
}

// ReferenceGroups answers a grouped query by a sequential scan — the
// ground truth both paths must match.
func (s *System) ReferenceGroups(q *query.Query) ([]table.GroupRow, error) {
	_, g, err := s.reference(q, s.pin())
	return g, err
}
