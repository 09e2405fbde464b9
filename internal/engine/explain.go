package engine

import (
	"fmt"
	"strings"

	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// Explanation is the scheduler's view of one query without executing it:
// the step-2 estimates and the placement Submit would make right now.
type Explanation struct {
	// Resolution is R (eq. 2), including grouping levels.
	Resolution int
	// SubCubeBytes is the eq. 3 footprint (0 when not CPU-answerable).
	SubCubeBytes int64
	// ColumnsAccessed is C_QD (eq. 12).
	ColumnsAccessed int
	// Estimates are the raw step-2 outputs.
	Estimates sched.Estimates
	// Decision is the hypothetical placement (queue clocks uncommitted).
	Decision sched.Decision
	// Reason summarises why the CPU path is or is not available.
	Reason string
}

// Explain prices and places a query hypothetically: nothing executes and
// no queue state changes.
func (s *System) Explain(q *query.Query) (*Explanation, error) {
	if err := q.Validate(s.cfg.Table.Schema()); err != nil {
		return nil, err
	}
	est, err := s.Estimate(q)
	if err != nil {
		return nil, err
	}
	d, err := s.scheduler.Peek(s.nowS(), est)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{
		Resolution:      q.GroupResolution(),
		ColumnsAccessed: q.ColumnsAccessed(),
		Estimates:       est,
		Decision:        d,
	}
	switch {
	case q.GPUOnly():
		ex.Reason = "text predicates or text grouping force the GPU path"
	case s.cfg.Cubes == nil:
		ex.Reason = "no cube set configured"
	case !est.CPUOK:
		if q.Op != table.AggCount && q.Measure != s.cfg.Cubes.Measure() {
			ex.Reason = fmt.Sprintf("cubes aggregate measure %d, query needs %d", s.cfg.Cubes.Measure(), q.Measure)
		} else {
			ex.Reason = fmt.Sprintf("no pre-calculated cube at level >= %d", ex.Resolution)
		}
	default:
		if n, ok := q.SubCubeBytes(s.cfg.Cubes); ok {
			ex.SubCubeBytes = n
		}
		ex.Reason = "cube-answerable"
	}
	return ex, nil
}

// String renders the explanation for terminals.
func (ex *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "resolution R=%d, columns C_QD=%d\n", ex.Resolution, ex.ColumnsAccessed)
	if ex.Estimates.CPUOK {
		fmt.Fprintf(&sb, "cpu:   T_CPU=%.3gs over %.2f MB sub-cube (%s)\n",
			ex.Estimates.CPUSeconds, float64(ex.SubCubeBytes)/(1<<20), ex.Reason)
	} else {
		fmt.Fprintf(&sb, "cpu:   unavailable (%s)\n", ex.Reason)
	}
	for i, g := range ex.Estimates.GPUSeconds {
		fmt.Fprintf(&sb, "gpu[%d]: T_GPU=%.3gs\n", i, g)
	}
	if ex.Estimates.NeedsTranslation {
		fmt.Fprintf(&sb, "trans: T_TRANS=%.3gs\n", ex.Estimates.TransSeconds)
	}
	fmt.Fprintf(&sb, "decision: %s (start %.3gs, done %.3gs, deadline %s)",
		ex.Decision.Queue, ex.Decision.Start, ex.Decision.End, meets(ex.Decision.MeetsDeadline))
	return sb.String()
}

func meets(b bool) string {
	if b {
		return "met"
	}
	return "missed"
}
