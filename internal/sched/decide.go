package sched

import (
	"fmt"

	"hybridolap/internal/sched/tq"
)

// Submit runs the configured policy for one query arriving at time now
// (seconds on the engine's clock) with the given step-2 estimates, commits
// the chosen queue's clock updates, and returns the placement.
func (s *Scheduler) Submit(now float64, est Estimates) (Decision, error) {
	return s.submit(now, now+s.cfg.DeadlineSeconds, est, &s.stats.Submitted)
}

// Resubmit re-books a failed job through the normal policy with an
// explicit absolute deadline: a retry keeps the original T_D and competes
// with whatever slack remains, instead of earning a fresh T_C. When no
// GPU partition can still make the deadline, the policy's own CPU
// preference and min-|slack| fallback provide the failover path.
func (s *Scheduler) Resubmit(now, deadline float64, est Estimates) (Decision, error) {
	return s.submit(now, deadline, est, &s.stats.Resubmitted)
}

func (s *Scheduler) submit(now, deadline float64, est Estimates, counter *int64) (Decision, error) {
	if len(est.GPUSeconds) != len(s.cfg.GPUWidths) {
		return Decision{}, fmt.Errorf("sched: got %d GPU estimates for %d partitions",
			len(est.GPUSeconds), len(s.cfg.GPUWidths))
	}
	if est.NeedsTranslation && est.CPUOK {
		return Decision{}, fmt.Errorf("sched: query cannot both need translation and be CPU-answerable")
	}
	if est.LinkSeconds > 0 {
		// Movement is paid before any partition of this node can start: fold
		// the transfer into every service estimate (copying the slice — the
		// caller's estimates must stay unscaled for retries on other nodes).
		est.CPUSeconds += est.LinkSeconds
		est.GPUSeconds = append([]float64(nil), est.GPUSeconds...)
		for i := range est.GPUSeconds {
			est.GPUSeconds[i] += est.LinkSeconds
		}
	}
	*counter++

	var d Decision
	var err error
	switch s.cfg.Policy {
	case PolicyPaper:
		d, err = s.decidePaper(now, deadline, est)
	case PolicyGPUOnly:
		d, err = s.decideGPUOnly(now, deadline, est)
	case PolicyCPUOnly:
		d, err = s.decideCPUOnly(now, deadline, est)
	case PolicyMCT:
		d, err = s.decideMCT(now, deadline, est)
	case PolicyMET:
		d, err = s.decideMET(now, deadline, est)
	case PolicyRoundRobin:
		d, err = s.decideRoundRobin(now, deadline, est)
	default:
		err = fmt.Errorf("sched: unknown policy %v", s.cfg.Policy)
	}
	if err != nil {
		*counter--
		s.stats.RejectedQueries++
		return Decision{}, err
	}
	d.Deadline = deadline
	d.MeetsDeadline = d.End <= deadline
	if !d.MeetsDeadline {
		s.stats.PredictedLate++
	}
	return d, nil
}

// decidePaper is the Fig. 10 algorithm, steps 3–6, restricted to healthy
// (or probing) GPU partitions: a quarantined partition is invisible to
// the P_BD scan, the CPU-vs-GPU speed test and the min-|slack| fallback.
func (s *Scheduler) decidePaper(now, deadline float64, est Estimates) (Decision, error) {
	// Step 3: response times for all partitions.
	cpuStart := s.clocks.Start(tq.CPU, now)
	cpuEnd := cpuStart + est.CPUSeconds

	n := len(s.cfg.GPUWidths)
	elig, anyElig := s.eligibleSet(now)
	type cand struct{ transStart, transEnd, start, end float64 }
	gpu := make([]cand, n)
	for i := 0; i < n; i++ {
		ts, te, st, en := s.responseGPU(i, now, est)
		gpu[i] = cand{ts, te, st, en}
	}

	// Step 4: the before-deadline set P_BD.
	cpuInBD := est.CPUOK && deadline-cpuEnd > 0
	gpuInBD := make([]bool, n)
	anyGPU := false
	for i := range gpu {
		if elig[i] && deadline-gpu[i].end > 0 {
			gpuInBD[i] = true
			anyGPU = true
		}
	}

	// Step 5: P_BD non-empty.
	if cpuInBD || anyGPU {
		// CPU wins when it is in P_BD and its *processing* time beats the
		// fastest GPU partition's processing time (T_CPU < T_GPU3).
		if cpuInBD && est.CPUSeconds < s.fastestGPUService(est, elig) {
			d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: cpuStart, End: cpuEnd}
			s.commitCPU(&d)
			return d, nil
		}
		if anyGPU {
			// Scan GPU queues in placement order, take the first in P_BD.
			for _, i := range s.scanOrder(n) {
				if !gpuInBD[i] {
					continue
				}
				d := Decision{
					Queue:      QueueRef{Kind: QueueGPU, Index: i},
					TransStart: gpu[i].transStart, TransEnd: gpu[i].transEnd,
					Start: gpu[i].start, End: gpu[i].end,
				}
				s.commitGPU(i, &d, est)
				return d, nil
			}
		}
		// Only the CPU made the deadline (but lost the speed test above):
		// it is still the only in-time option, so use it.
		if cpuInBD {
			d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: cpuStart, End: cpuEnd}
			s.commitCPU(&d)
			return d, nil
		}
	}

	// Step 6: nothing meets the deadline — minimise |T_D − T_R|, i.e.
	// deliver as soon as possible.
	bestIdx := -1 // -1 = CPU
	best := infOr(cpuEnd, !est.CPUOK)
	for i := range gpu {
		if elig[i] && gpu[i].end < best {
			best = gpu[i].end
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		if !est.CPUOK {
			if !anyElig && n > 0 {
				return Decision{}, ErrAllQuarantined
			}
			return Decision{}, ErrUnanswerable
		}
		d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: cpuStart, End: cpuEnd}
		s.commitCPU(&d)
		return d, nil
	}
	d := Decision{
		Queue:      QueueRef{Kind: QueueGPU, Index: bestIdx},
		TransStart: gpu[bestIdx].transStart, TransEnd: gpu[bestIdx].transEnd,
		Start: gpu[bestIdx].start, End: gpu[bestIdx].end,
	}
	s.commitGPU(bestIdx, &d, est)
	return d, nil
}

// fastestGPUService returns T_GPU3: the service-time estimate of the
// fastest (widest) eligible GPU partition; +inf when none is eligible,
// so the CPU wins the speed test by default.
func (s *Scheduler) fastestGPUService(est Estimates, elig []bool) float64 {
	best := inf
	bestW := -1
	for i := 0; i < len(est.GPUSeconds); i++ {
		if !elig[i] {
			continue
		}
		if s.cfg.GPUWidths[i] > bestW || (s.cfg.GPUWidths[i] == bestW && est.GPUSeconds[i] < best) {
			best = est.GPUSeconds[i]
			bestW = s.cfg.GPUWidths[i]
		}
	}
	return best
}

// scanOrder yields GPU queue indices in the configured placement order.
func (s *Scheduler) scanOrder(n int) []int {
	order := make([]int, n)
	switch s.cfg.Placement {
	case PlaceFastestFirst:
		for i := range order {
			order[i] = n - 1 - i
		}
	case PlaceRoundRobin:
		for i := range order {
			order[i] = (s.rrNext + i) % n
		}
		s.rrNext = (s.rrNext + 1) % n
	default: // PlaceSlowestFirst: queue order is slow→fast by construction.
		for i := range order {
			order[i] = i
		}
	}
	return order
}

func infOr(v float64, disabled bool) float64 {
	if disabled {
		return inf
	}
	return v
}

const inf = 1e300

// decideGPUOnly schedules like the paper but with the CPU partition
// removed from consideration.
func (s *Scheduler) decideGPUOnly(now, deadline float64, est Estimates) (Decision, error) {
	est.CPUOK = false
	return s.decidePaper(now, deadline, est)
}

// decideCPUOnly places everything on the CPU processing queue.
func (s *Scheduler) decideCPUOnly(now, _ float64, est Estimates) (Decision, error) {
	if !est.CPUOK {
		return Decision{}, ErrUnanswerable
	}
	start := s.clocks.Start(tq.CPU, now)
	d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: start, End: start + est.CPUSeconds}
	s.commitCPU(&d)
	return d, nil
}

// decideMCT picks the earliest completion over every eligible partition.
func (s *Scheduler) decideMCT(now, _ float64, est Estimates) (Decision, error) {
	n := len(s.cfg.GPUWidths)
	elig, _ := s.eligibleSet(now)
	bestIdx := -1
	cpuStart := s.clocks.Start(tq.CPU, now)
	best := infOr(cpuStart+est.CPUSeconds, !est.CPUOK)
	type cand struct{ transStart, transEnd, start, end float64 }
	gpu := make([]cand, n)
	for i := 0; i < n; i++ {
		ts, te, st, en := s.responseGPU(i, now, est)
		gpu[i] = cand{ts, te, st, en}
		if elig[i] && en < best {
			best = en
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		if !est.CPUOK {
			return Decision{}, ErrUnanswerable
		}
		d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: cpuStart, End: best}
		s.commitCPU(&d)
		return d, nil
	}
	d := Decision{
		Queue:      QueueRef{Kind: QueueGPU, Index: bestIdx},
		TransStart: gpu[bestIdx].transStart, TransEnd: gpu[bestIdx].transEnd,
		Start: gpu[bestIdx].start, End: gpu[bestIdx].end,
	}
	s.commitGPU(bestIdx, &d, est)
	return d, nil
}

// decideMET picks the smallest service time, ignoring queue lengths.
func (s *Scheduler) decideMET(now, _ float64, est Estimates) (Decision, error) {
	elig, _ := s.eligibleSet(now)
	bestIdx := -1
	best := infOr(est.CPUSeconds, !est.CPUOK)
	for i, g := range est.GPUSeconds {
		svc := g + est.TransSeconds // translation is part of the work MET ignores queues for
		if elig[i] && svc < best {
			best = svc
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		if !est.CPUOK {
			return Decision{}, ErrUnanswerable
		}
		start := s.clocks.Start(tq.CPU, now)
		d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: start, End: start + est.CPUSeconds}
		s.commitCPU(&d)
		return d, nil
	}
	ts, te, st, en := s.responseGPU(bestIdx, now, est)
	d := Decision{
		Queue:      QueueRef{Kind: QueueGPU, Index: bestIdx},
		TransStart: ts, TransEnd: te, Start: st, End: en,
	}
	s.commitGPU(bestIdx, &d, est)
	return d, nil
}

// decideRoundRobin cycles over CPU + GPU queues, skipping ineligible ones.
func (s *Scheduler) decideRoundRobin(now, _ float64, est Estimates) (Decision, error) {
	n := len(s.cfg.GPUWidths)
	elig, _ := s.eligibleSet(now)
	slots := n + 1 // slot n means CPU
	for k := 0; k < slots; k++ {
		slot := (s.rrNext + k) % slots
		if slot == n {
			if !est.CPUOK {
				continue
			}
			s.rrNext = (slot + 1) % slots
			start := s.clocks.Start(tq.CPU, now)
			d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: start, End: start + est.CPUSeconds}
			s.commitCPU(&d)
			return d, nil
		}
		if !elig[slot] {
			continue
		}
		s.rrNext = (slot + 1) % slots
		ts, te, st, en := s.responseGPU(slot, now, est)
		d := Decision{
			Queue:      QueueRef{Kind: QueueGPU, Index: slot},
			TransStart: ts, TransEnd: te, Start: st, End: en,
		}
		s.commitGPU(slot, &d, est)
		return d, nil
	}
	return Decision{}, ErrUnanswerable
}
