package sched

import (
	"fmt"

	"hybridolap/internal/sched/tq"
)

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
// The heuristic respects the same structural rules as Fig. 10: CPU is
// eligible only when CPUOK, and translated queries gate their GPU start on
// the translation queue.
func (s *Scheduler) PlanBatch(now float64, ests []Estimates, flavor BatchFlavor) ([]Decision, error) {
	for i := range ests {
		if len(ests[i].GPUSeconds) != len(s.cfg.GPUWidths) {
			return nil, fmt.Errorf("sched: batch item %d has %d GPU estimates for %d partitions",
				i, len(ests[i].GPUSeconds), len(s.cfg.GPUWidths))
		}
		if ests[i].NeedsTranslation && ests[i].CPUOK {
			return nil, fmt.Errorf("sched: batch item %d both needs translation and is CPU-answerable", i)
		}
	}
	decisions := make([]Decision, len(ests))
	assigned := make([]bool, len(ests))
	remaining := len(ests)

	// bestFor prices the unassigned task i against every eligible queue
	// under the *current* clocks and returns its best decision plus the
	// second-best completion time (for sufferage).
	bestFor := func(i int) (Decision, float64, bool) {
		est := ests[i]
		best := Decision{}
		second := inf
		found := false
		consider := func(d Decision) {
			if !found || d.End < best.End {
				if found {
					second = best.End
				}
				best = d
				found = true
				return
			}
			if d.End < second {
				second = d.End
			}
		}
		if est.CPUOK {
			start := s.clocks.Start(tq.CPU, now)
			consider(Decision{Queue: QueueRef{Kind: QueueCPU}, Start: start, End: start + est.CPUSeconds})
		}
		for g := range s.cfg.GPUWidths {
			ts, te, st, en := s.responseGPU(g, now, est)
			consider(Decision{
				Queue:      QueueRef{Kind: QueueGPU, Index: g},
				TransStart: ts, TransEnd: te, Start: st, End: en,
			})
		}
		return best, second, found
	}

	for remaining > 0 {
		pick := -1
		var pickD Decision
		var pickScore float64
		for i := range ests {
			if assigned[i] {
				continue
			}
			d, second, ok := bestFor(i)
			if !ok {
				return nil, ErrUnanswerable
			}
			var score float64
			switch flavor {
			case MinMin:
				score = -d.End // smallest completion wins
			case MaxMin:
				score = d.End // largest completion wins
			case Sufferage:
				score = second - d.End // biggest regret wins
				if second >= inf {
					score = inf // only one option: map it now
				}
			default:
				return nil, fmt.Errorf("sched: unknown batch flavor %v", flavor)
			}
			if pick < 0 || score > pickScore {
				pick = i
				pickD = d
				pickScore = score
			}
		}
		// Commit the picked assignment.
		d := pickD
		d.Deadline = now + s.cfg.DeadlineSeconds
		d.MeetsDeadline = d.End <= d.Deadline
		if d.Queue.Kind == QueueCPU {
			s.commitCPU(&d)
		} else {
			s.commitGPU(d.Queue.Index, &d, ests[pick])
		}
		s.stats.Submitted++
		if !d.MeetsDeadline {
			s.stats.PredictedLate++
		}
		decisions[pick] = d
		assigned[pick] = true
		remaining--
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
