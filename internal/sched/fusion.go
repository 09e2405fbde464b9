package sched

import "fmt"

// DefaultFusionEpsilonSeconds is the default ε: the marginal cost of one
// extra member's predicate evaluation riding a shared scan. Scans are
// memory-bandwidth-bound, so the extra compute is orders of magnitude
// cheaper than a second traversal.
const DefaultFusionEpsilonSeconds = 1e-4

// FanInBucketLabels names the power-of-two fan-in histogram buckets of
// Stats.FusionFanIn.
var FanInBucketLabels = []string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33+"}

// FanInBucket maps a member count to its FusionFanIn bucket index.
func FanInBucket(k int) int {
	switch {
	case k <= 1:
		return 0
	case k == 2:
		return 1
	case k <= 4:
		return 2
	case k <= 8:
		return 3
	case k <= 16:
		return 4
	case k <= 32:
		return 5
	default:
		return 6
	}
}

// SubmitFused books K compatible member queries as ONE GPU job: the
// combined per-partition estimate is max over the members plus K·ε — the
// members share one traversal instead of queuing K of them — so queue
// pressure turns into throughput. Members must be pre-translated (the
// engine translates before the fusion window closes) and the combined job
// is GPU-only: shared scans target the fact-table path, never the CPU
// cube walk. deadline is the absolute T_D of the job — the earliest
// member's arrival + T_C, so time a member spent waiting in the fusion
// window is charged against its T_C instead of earning a fresh one at
// fire time. The decision's queue, window and deadline apply to every
// member; the caller settles the whole job with one Settle.
func (s *Scheduler) SubmitFused(now, deadline float64, members []Estimates) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(members) == 0 {
		return Decision{}, fmt.Errorf("sched: fused submission needs at least one member")
	}
	eps := s.cfg.FusionEpsilonSeconds
	if eps <= 0 {
		eps = DefaultFusionEpsilonSeconds
	}
	n := len(s.cfg.GPUWidths)
	if cap(s.fused) < n {
		s.fused = make([]float64, n)
	}
	combined := Estimates{GPUSeconds: s.fused[:n]}
	clear(combined.GPUSeconds)
	for mi := range members {
		if len(members[mi].GPUSeconds) != n {
			return Decision{}, fmt.Errorf("sched: member %d has %d GPU estimates, want %d",
				mi, len(members[mi].GPUSeconds), n)
		}
		for i, g := range members[mi].GPUSeconds {
			if g > combined.GPUSeconds[i] {
				combined.GPUSeconds[i] = g
			}
		}
	}
	overhead := float64(len(members)) * eps
	for i := range combined.GPUSeconds {
		combined.GPUSeconds[i] += overhead
	}
	d, err := s.submit(now, deadline, combined, &s.stats.Submitted, s.pick)
	if err != nil {
		return Decision{}, err
	}
	s.stats.FusedJobs++
	s.stats.FusedMembers += int64(len(members))
	s.stats.FusionFanIn[FanInBucket(len(members))]++
	return d, nil
}
