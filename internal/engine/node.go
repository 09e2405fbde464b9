package engine

import (
	"fmt"

	"hybridolap/internal/cube"
	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// One machine of the hybrid system, as a single-node System and every
// cluster node share it: the paper's defaults, the assembly of a device
// and cube set over a table, step 2's pricing and the CPU side's cube
// walk. The cluster calls these instead of keeping copies.

// Defaults points at the settings a caller resolves. Fill writes the
// paper's configuration into each zero one; it is the only code that
// writes these values, and Config, SetupSpec, AdvisorSpec and
// cluster.Config all resolve through it. Nil pointers are skipped.
type Defaults struct {
	CPUThreads      *int                  // 8
	CubeLevels      *[]int                // {0, 1}
	DeadlineSeconds *float64              // T_C = 1 s
	MaxRetries      *int                  // 2
	Layout          *[]int                // gpusim.PaperLayout
	Estimator       **perfmodel.Estimator // perfmodel.PaperEstimator
}

// Fill resolves every zero setting d points at.
func (d Defaults) Fill() {
	if d.CPUThreads != nil && *d.CPUThreads == 0 {
		*d.CPUThreads = 8
	}
	if d.CubeLevels != nil && *d.CubeLevels == nil {
		*d.CubeLevels = []int{0, 1}
	}
	if d.DeadlineSeconds != nil && *d.DeadlineSeconds == 0 {
		*d.DeadlineSeconds = 1.0
	}
	if d.MaxRetries != nil && *d.MaxRetries == 0 {
		*d.MaxRetries = 2
	}
	if d.Layout != nil && *d.Layout == nil {
		*d.Layout = gpusim.PaperLayout()
	}
	if d.Estimator != nil && *d.Estimator == nil {
		*d.Estimator = perfmodel.PaperEstimator()
	}
}

// NewNode assembles one machine over ft: a simulated Tesla C2070 holding
// ft, cut into layout, with faults wired into its kernel launches, and —
// unless levels is nil — the cube set materialising those levels of
// measure 0. Setup, a cluster's holders and repairs, and a cluster node
// that fetched a shard all build through it.
func NewNode(ft *table.FactTable, layout, levels []int, faults *fault.Plan) (*gpusim.Device, *cube.Set, error) {
	dev, err := gpusim.NewDevice(gpusim.TeslaC2070())
	if err != nil {
		return nil, nil, err
	}
	if err := dev.LoadTable(ft); err != nil {
		return nil, nil, err
	}
	if err := dev.Partition(layout); err != nil {
		return nil, nil, err
	}
	dev.SetFaults(faults)
	if levels == nil {
		return dev, nil, nil
	}
	cs, err := cube.BuildSet(ft, levels, 0, cube.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("engine: building cube set: %w", err)
	}
	return dev, cs, nil
}

// Pricer is step 2 of Fig. 10 for one machine: T_CPU from the sub-cube
// model (eqs. 3+7/10) and T_GPU per partition from P_GPU (eq. 14), with
// the models, the CPU side's thread count and the partition widths they
// price. System.Estimate and every cluster shard sub-query price through
// it.
type Pricer struct {
	est       *perfmodel.Estimator
	threads   int
	widths    []int
	totalCols int
}

// NewPricer checks that est models every partition width and, when cpu is
// set, the CPU side's thread count: a machine whose CPU side has no model
// would otherwise be priced GPU-only without a word.
func NewPricer(est *perfmodel.Estimator, threads int, widths []int, s *table.Schema, cpu bool) (*Pricer, error) {
	if _, ok := est.CPU[threads]; !ok && cpu {
		return nil, fmt.Errorf("engine: estimator has no CPU model for %d threads", threads)
	}
	for i, w := range widths {
		if _, ok := est.GPU[w]; !ok {
			return nil, fmt.Errorf("engine: estimator has no GPU model for the %d-SM partition %d", w, i)
		}
	}
	return &Pricer{est: est, threads: threads, widths: widths, totalCols: s.TotalColumns()}, nil
}

// Widths returns the partition widths the pricer prices, in SMs.
func (p *Pricer) Widths() []int { return p.widths }

// Price returns q's T_CPU — when cs is non-nil and can answer q — and its
// T_GPU on every partition. Translation is the caller's to price.
func (p *Pricer) Price(q *query.Query, cs *cube.Set) (sched.Estimates, error) {
	var est sched.Estimates
	if cs != nil && cpuCanAnswer(q, cs) {
		if bytes, ok := q.SubCubeBytes(cs); ok {
			mb := float64(bytes) / (1 << 20)
			t, err := p.est.CPUTime(p.threads, mb)
			if err != nil {
				return sched.Estimates{}, err
			}
			est.CPUOK = true
			est.CPUSeconds = t
		}
	}
	cols := q.ColumnsAccessed()
	est.GPUSeconds = make([]float64, len(p.widths))
	for i, w := range p.widths {
		t, err := p.est.GPUTime(w, cols, p.totalCols)
		if err != nil {
			return sched.Estimates{}, err
		}
		est.GPUSeconds[i] = t
	}
	return est, nil
}

// cpuCanAnswer reports whether the cube set can answer the query at all:
// no text predicates (cubes aggregate over hierarchies only) and the
// query's measure is the one the cubes aggregate (count queries read no
// measure, so any cube set works).
func cpuCanAnswer(q *query.Query, cs *cube.Set) bool {
	if q.GPUOnly() {
		return false
	}
	return q.Op == table.AggCount || q.Measure == cs.Measure()
}

// CubeWalk is the CPU side's one cube walk: q answered from cs with threads
// workers, into one aggregate or one per group, left unfinalised — a
// cluster shard's state merges into its coordinator's chunk fold as it
// is, and cpuAnswer finalises a single node's. An empty box walks
// nothing and returns the zero state.
func CubeWalk(q *query.Query, cs *cube.Set, threads int) (table.State, error) {
	if cs == nil {
		return table.State{}, fmt.Errorf("engine: no cube set configured")
	}
	if !cpuCanAnswer(q, cs) {
		return table.State{}, fmt.Errorf("engine: query %d (measure %d, %d text predicates) cannot be answered from the cube set",
			q.ID, q.Measure, len(q.TextConds))
	}
	r := q.Resolution()
	box, empty, err := q.Box(cs.Schema(), r)
	if err != nil || empty {
		return table.State{}, err
	}
	if !q.Grouped() {
		agg, _, err := cs.Aggregate(box, r, threads)
		if err != nil {
			return table.State{}, err
		}
		return table.State{Scalar: agg.Result(q.Op)}, nil
	}
	groups, err := q.CubeGroupLevels()
	if err != nil {
		return table.State{}, err
	}
	m, err := cs.AggregateGroups(box, r, groups, threads)
	if err != nil {
		return table.State{}, err
	}
	acc := make(table.Groups, len(m))
	for k, agg := range m {
		acc[k] = agg.Result(q.Op)
	}
	return table.State{Groups: acc}, nil
}
