package sched

import "fmt"

// BatchFlavor selects a batch-mode mapping heuristic from the comparison
// study the paper builds its scheduling survey on (Braun et al. [2]).
// Unlike the on-line Fig. 10 algorithm, batch heuristics see a whole set
// of tasks at once and map them together.
type BatchFlavor int

const (
	// MinMin repeatedly maps the task with the smallest best completion
	// time. Small tasks clear out first; large ones fill the gaps.
	MinMin BatchFlavor = iota
	// MaxMin repeatedly maps the task whose best completion time is
	// largest — big rocks first, gravel after.
	MaxMin
	// Sufferage repeatedly maps the task that would suffer most if denied
	// its best partition: the one with the largest gap between its best
	// and second-best completion times.
	Sufferage
)

// String names the flavor.
func (f BatchFlavor) String() string {
	switch f {
	case MinMin:
		return "min-min"
	case MaxMin:
		return "max-min"
	case Sufferage:
		return "sufferage"
	default:
		return fmt.Sprintf("BatchFlavor(%d)", int(f))
	}
}

// PlanBatch maps a whole batch of queries onto the scheduler's partitions
// with the chosen heuristic, committing queue-clock updates exactly as if
// each were submitted in the heuristic's order. Decisions are returned in
// input order. All estimates are priced at time `now`.
//
// The heuristic ranks the same candidate sets Fig. 10 picks from, so it
// respects the same structural rules: CPU is eligible only when CPUOK,
// quarantined partitions take no work, and translated queries gate their
// GPU start on the translation queue.
func (s *Scheduler) PlanBatch(now float64, ests []Estimates, flavor BatchFlavor) ([]Decision, error) {
	for i := range ests {
		if err := s.check(ests[i]); err != nil {
			return nil, fmt.Errorf("%w (batch item %d)", err, i)
		}
	}
	deadline := now + s.cfg.DeadlineSeconds
	decisions := make([]Decision, len(ests))
	assigned := make([]bool, len(ests))
	for remaining := len(ests); remaining > 0; remaining-- {
		// Price every unassigned task against every eligible queue under
		// the *current* clocks: its earliest completion, and the
		// runner-up's for sufferage.
		pick, pickQ, pickScore := -1, 0, 0.0
		for i := range ests {
			if assigned[i] {
				continue
			}
			c, err := s.candidates(now, deadline, ests[i])
			if err != nil {
				return nil, err
			}
			q, second, ok := c.earliest()
			if !ok {
				return nil, ErrUnanswerable
			}
			end := c.decision(q).End
			var score float64
			switch flavor {
			case MinMin:
				score = -end // smallest completion wins
			case MaxMin:
				score = end // largest completion wins
			case Sufferage:
				score = second - end // biggest regret wins
				if second >= inf {
					score = inf // only one option: map it now
				}
			default:
				return nil, fmt.Errorf("sched: unknown batch flavor %v", flavor)
			}
			if pick < 0 || score > pickScore {
				pick, pickQ, pickScore = i, q, score
			}
		}
		d, err := s.submit(now, deadline, ests[pick], &s.stats.Submitted,
			func(*Config, *candidates) (int, error) { return pickQ, nil })
		if err != nil {
			return nil, err
		}
		decisions[pick] = d
		assigned[pick] = true
	}
	return decisions, nil
}

// BatchMakespan returns the latest completion among the decisions — the
// batch's finishing time under the plan.
func BatchMakespan(ds []Decision) float64 {
	var m float64
	for _, d := range ds {
		if d.End > m {
			m = d.End
		}
	}
	return m
}
