package engine

import (
	"fmt"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/ingest"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// SetupSpec builds a complete paper-configuration system in one call.
type SetupSpec struct {
	// Rows sizes the laptop-scale fact table (default 50 000).
	Rows int
	// Seed drives table generation.
	Seed int64
	// CubeLevels are materialised (default {0, 1}); real cells, answerable.
	CubeLevels []int
	// VirtualLevels are registered for estimation only (use with RunModel;
	// never with Serve, which must answer on real cells).
	VirtualLevels []int
	// CPUThreads selects the CPU performance model: 1, 4 or 8 (default 8).
	CPUThreads int
	// DeadlineSeconds is T_C (default 1.0).
	DeadlineSeconds float64
	// Policy, Placement, Translation and DisableFeedback configure the
	// scheduler (defaults: the paper algorithm).
	Policy          sched.Policy
	Placement       sched.Placement
	Translation     sched.TranslationMode
	DisableFeedback bool
	// QuarantineThreshold and ReprobeSeconds configure the scheduler's
	// partition-health layer (defaults: 3 consecutive failures, 5 s).
	QuarantineThreshold int
	ReprobeSeconds      float64
	// Layout overrides the GPU partition layout (default PaperLayout).
	Layout []int
	// Estimator overrides the performance models (default paper models).
	Estimator *perfmodel.Estimator
	// VirtualDictLens overrides dictionary lengths for translation-time
	// estimation (paper-scale dictionaries over a laptop-scale table).
	VirtualDictLens map[string]int
	// Live wraps the generated table in a streaming ingest store: queries
	// pin epoch snapshots, Ingest accepts row batches and the cube set is
	// maintained incrementally. Implied by LiveWALPath.
	Live bool
	// LiveWALPath persists ingested batches to a crash-recoverable append
	// log at this path (implies Live); on startup every intact logged
	// batch is replayed.
	LiveWALPath string
	// Faults installs a seeded chaos plan across the whole stack: GPU
	// kernel launches, dictionary translation, the live store's WAL and
	// compaction all consult it. Nil runs fault-free.
	Faults *fault.Plan
	// MaxRetries bounds re-booking of failed GPU attempts (default 2;
	// negative disables retries).
	MaxRetries int
	// Fusion enables the Serve fusion window; FusionMaxFanIn (default 64)
	// caps its members and FusionWindow (default 1ms) is an upper bound on
	// the leader's hold — the window closes as soon as no request can
	// still join. FusionEpsilonSeconds is the scheduler's per-member
	// shared-scan overhead ε.
	Fusion               bool
	FusionWindow         time.Duration
	FusionMaxFanIn       int
	FusionEpsilonSeconds float64
	// Cache enables the epoch-keyed result cache consulted by Serve;
	// CacheMaxEntries bounds it (default engine.DefaultCacheMaxEntries).
	Cache           bool
	CacheMaxEntries int
}

// Setup generates the fact table on the paper schema, loads it into a
// simulated Tesla C2070, pre-calculates the requested cubes, registers the
// virtual levels and wires the system.
func Setup(spec SetupSpec) (*System, error) {
	if spec.Rows == 0 {
		spec.Rows = 50_000
	}
	Defaults{CubeLevels: &spec.CubeLevels, DeadlineSeconds: &spec.DeadlineSeconds, Layout: &spec.Layout}.Fill()

	ft, err := table.Generate(table.GenSpec{
		Schema: table.PaperSchema(),
		Rows:   spec.Rows,
		Seed:   spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: generating fact table: %w", err)
	}

	dev, cs, err := NewNode(ft, spec.Layout, spec.CubeLevels, spec.Faults)
	if err != nil {
		return nil, err
	}
	for _, l := range spec.VirtualLevels {
		if err := cs.AddVirtual(l); err != nil {
			return nil, err
		}
	}

	var store *ingest.Store
	if spec.Live || spec.LiveWALPath != "" {
		store, err = ingest.Open(ingest.Config{
			Base:    ft,
			Cubes:   cs,
			WALPath: spec.LiveWALPath,
			Faults:  spec.Faults,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: opening ingest store: %w", err)
		}
	}

	sys, err := New(Config{
		Table:           ft,
		Cubes:           cs,
		Device:          dev,
		Estimator:       spec.Estimator,
		CPUThreads:      spec.CPUThreads,
		VirtualDictLens: spec.VirtualDictLens,
		Live:            store,
		Faults:          spec.Faults,
		MaxRetries:      spec.MaxRetries,
		FusionEnabled:   spec.Fusion,
		FusionWindow:    spec.FusionWindow,
		FusionMaxFanIn:  spec.FusionMaxFanIn,
		CacheEnabled:    spec.Cache,
		CacheMaxEntries: spec.CacheMaxEntries,
		Sched: sched.Config{
			DeadlineSeconds:      spec.DeadlineSeconds,
			Policy:               spec.Policy,
			Placement:            spec.Placement,
			Translation:          spec.Translation,
			DisableFeedback:      spec.DisableFeedback,
			QuarantineThreshold:  spec.QuarantineThreshold,
			ReprobeSeconds:       spec.ReprobeSeconds,
			FusionEpsilonSeconds: spec.FusionEpsilonSeconds,
		},
	})
	if err != nil {
		if store != nil {
			_ = store.Close()
		}
		return nil, err
	}
	if store != nil {
		// Compaction books its cost on the scheduler's CPU queue.
		store.SetPacer(sys.CompactionPacer())
	}
	return sys, nil
}
