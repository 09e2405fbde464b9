package sched

import (
	"fmt"
	"math"
	"slices"

	"hybridolap/internal/sched/tq"
)

// Submit runs the configured policy for one query arriving at time now
// (seconds on the engine's clock) with the given step-2 estimates, commits
// the chosen queue's clock updates, and returns the placement.
func (s *Scheduler) Submit(now float64, est Estimates) (Decision, error) {
	return s.submit(now, now+s.cfg.DeadlineSeconds, est, &s.stats.Submitted, s.pick)
}

// Resubmit re-books a failed job through the normal policy with an
// explicit absolute deadline: a retry keeps the original T_D and competes
// with whatever slack remains, instead of earning a fresh T_C. When no
// GPU partition can still make the deadline, the policy's own CPU
// preference and min-|slack| fallback provide the failover path.
func (s *Scheduler) Resubmit(now, deadline float64, est Estimates) (Decision, error) {
	return s.submit(now, deadline, est, &s.stats.Resubmitted, s.pick)
}

// Peek returns what Submit would decide now without booking it: no queue
// clock, health state, round-robin cursor or counter changes. It powers
// EXPLAIN-style introspection and the cluster's choice of node. Like
// Submit, it needs the caller's serialisation: the candidate set is built
// in the scheduler's scratch space.
func (s *Scheduler) Peek(now float64, est Estimates) (Decision, error) {
	c, err := s.candidates(now, now+s.cfg.DeadlineSeconds, est)
	if err != nil {
		return Decision{}, err
	}
	q, err := s.pick(&s.cfg, c)
	if err != nil {
		return Decision{}, err
	}
	return c.decision(q), nil
}

// submit is the one path from estimates to a booked placement: step 3's
// candidate set, the pick of steps 4–6, and the commit.
func (s *Scheduler) submit(now, deadline float64, est Estimates, counter *int64, pick pickFunc) (Decision, error) {
	c, err := s.candidates(now, deadline, est)
	if err != nil {
		return Decision{}, err
	}
	// Offering work to a partition whose re-probe is due moves it
	// Quarantined → Probation. The CPU-only policy never offers the GPU
	// partitions work, so it opens no probe.
	if s.cfg.Policy != PolicyCPUOnly {
		s.health.promote(now)
	}
	q, err := pick(&s.cfg, c)
	if err != nil {
		s.stats.RejectedQueries++
		return Decision{}, err
	}
	*counter++
	return s.commit(c, q), nil
}

// commit books the picked queue q of c: its processing window, the
// translation job of a GPU placement, the pick's cursor and the counters.
func (s *Scheduler) commit(c *candidates, q int) Decision {
	d := c.decision(q)
	s.rrNext = c.rr
	if q == cpuQueue {
		s.clocks.Book(tq.CPU, d.End)
		s.stats.ToCPU++
	} else {
		if c.est.NeedsTranslation {
			s.clocks.Book(s.transLane(), d.TransEnd)
			s.stats.Translated++
		}
		s.clocks.Book(tq.Lane(q), d.End)
		s.stats.ToGPU[q]++
	}
	if !d.MeetsDeadline {
		s.stats.PredictedLate++
	}
	return d
}

// check validates one query's step-2 estimates against the layout.
func (s *Scheduler) check(est Estimates) error {
	if len(est.GPUSeconds) != len(s.cfg.GPUWidths) {
		return fmt.Errorf("sched: got %d GPU estimates for %d partitions",
			len(est.GPUSeconds), len(s.cfg.GPUWidths))
	}
	if est.NeedsTranslation && est.CPUOK {
		return fmt.Errorf("sched: query cannot both need translation and be CPU-answerable")
	}
	return nil
}

// transLane is the queue translation jobs book: Q_TRANS, or Q_CPU under
// the TransOnCPUQueue ablation.
func (s *Scheduler) transLane() tq.Lane {
	if s.cfg.Translation == TransOnCPUQueue {
		return tq.CPU
	}
	return tq.Trans
}

// cpuQueue is the pick that names the CPU processing partition; a GPU
// partition is named by its index.
const cpuQueue = -1

// window is one queue's step-3 schedule for a query: the translation job
// (GPU windows of a query that needs translation) and the processing job,
// whose end is the response time T_R.
type window struct{ transStart, transEnd, start, end float64 }

// candidates is step 3 of Fig. 10 for one query: every queue's window
// under the current clocks, computed once. A policy picks from it; only
// the pick is booked.
type candidates struct {
	est      Estimates // the link cost folded into every service estimate
	deadline float64
	cpu      window // valid when est.CPUOK
	gpu      []window
	elig     []bool    // partition health admits work at now
	rr       int       // a copy of the round-robin cursor, for the pick to advance
	svc      []float64 // backs est.GPUSeconds when a link cost is folded in
}

// candidates validates est and builds its candidate set in the
// scheduler's scratch space. It changes no scheduler state.
func (s *Scheduler) candidates(now, deadline float64, est Estimates) (*candidates, error) {
	if err := s.check(est); err != nil {
		return nil, err
	}
	c := &s.cand
	if est.LinkSeconds > 0 {
		// Movement is paid before any partition of this node can start:
		// fold the transfer into every service estimate (in scratch — the
		// caller's estimates must stay unscaled for retries on other nodes).
		est.CPUSeconds += est.LinkSeconds
		c.svc = c.svc[:0]
		for _, g := range est.GPUSeconds {
			c.svc = append(c.svc, g+est.LinkSeconds)
		}
		est.GPUSeconds = c.svc
	}
	c.est, c.deadline, c.rr = est, deadline, s.rrNext
	cpu := s.clocks.Start(tq.CPU, now)
	c.cpu = window{start: cpu, end: cpu + est.CPUSeconds}
	var trans float64
	if est.NeedsTranslation {
		trans = s.clocks.Start(s.transLane(), now)
	}
	c.gpu, c.elig = c.gpu[:0], c.elig[:0]
	for i, g := range est.GPUSeconds {
		w := window{start: s.clocks.Start(tq.Lane(i), now)}
		if est.NeedsTranslation {
			// T_R|GPUi = max(T_Q|Gi, T_Q|TRANS + T_TRANS) + T_GPU.
			w.transStart, w.transEnd = trans, trans+est.TransSeconds
			w.start = math.Max(w.start, w.transEnd)
		}
		w.end = w.start + g
		c.gpu = append(c.gpu, w)
		c.elig = append(c.elig, s.health.admits(i, now))
	}
	return c, nil
}

// decision is the placement that picking queue q makes.
func (c *candidates) decision(q int) Decision {
	d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: c.cpu.start, End: c.cpu.end}
	if q != cpuQueue {
		w := c.gpu[q]
		d = Decision{Queue: QueueRef{Kind: QueueGPU, Index: q},
			TransStart: w.transStart, TransEnd: w.transEnd, Start: w.start, End: w.end}
	}
	d.Deadline = c.deadline
	d.MeetsDeadline = d.End <= c.deadline
	return d
}

// inBD reports whether GPU partition i is in the before-deadline set P_BD.
func (c *candidates) inBD(i int) bool { return c.elig[i] && c.deadline-c.gpu[i].end > 0 }

// earliest ranks the queues that can answer by T_R — the CPU first, then
// the GPU partitions in order, a later queue winning only when strictly
// earlier — and returns the winner and the runner-up's T_R (+inf when
// there is none). ok is false when no queue can answer.
func (c *candidates) earliest() (q int, second float64, ok bool) {
	q, best, second, ok := cpuQueue, inf, inf, c.est.CPUOK
	if ok {
		best = c.cpu.end
	}
	for i, w := range c.gpu {
		switch {
		case !c.elig[i]:
		case !ok || w.end < best:
			if ok {
				second = best
			}
			q, best, ok = i, w.end, true
		case w.end < second:
			second = w.end
		}
	}
	return q, second, ok
}

// pickFunc is a policy's steps 4–6: it names a queue of the candidate set
// — a GPU partition index or cpuQueue — and may advance c.rr. It books
// nothing.
type pickFunc func(cfg *Config, c *candidates) (int, error)

// policyPicks holds each Policy's pick.
var policyPicks = [...]pickFunc{PolicyPaper: pickPaper, PolicyGPUOnly: pickGPUOnly,
	PolicyCPUOnly: pickCPUOnly, PolicyMCT: pickMCT, PolicyMET: pickMET, PolicyRoundRobin: pickRoundRobin}

// policyPick returns the pick of policy p; an unknown policy's pick rejects
// every query.
func policyPick(p Policy) pickFunc {
	if p >= 0 && int(p) < len(policyPicks) {
		return policyPicks[p]
	}
	return func(*Config, *candidates) (int, error) { return 0, fmt.Errorf("sched: unknown policy %v", p) }
}

// pickPaper is the Fig. 10 algorithm, steps 4–6, restricted to healthy
// (or probing) GPU partitions: a quarantined partition is invisible to
// the P_BD scan, the CPU-vs-GPU speed test and the min-|slack| fallback.
func pickPaper(cfg *Config, c *candidates) (int, error) {
	// Steps 4–5 over the before-deadline set P_BD: the CPU wins when it
	// is in P_BD and its *processing* time beats the fastest GPU
	// partition's processing time (T_CPU < T_GPU3); otherwise the first
	// GPU partition in P_BD in placement order; and the CPU when only it
	// made the deadline.
	cpuInBD := c.est.CPUOK && c.deadline-c.cpu.end > 0
	if cpuInBD && c.est.CPUSeconds < fastestGPUService(cfg.GPUWidths, c) {
		return cpuQueue, nil
	}
	if q, ok := firstInBD(cfg.Placement, c); ok {
		return q, nil
	}
	if cpuInBD {
		return cpuQueue, nil
	}
	// Step 6: nothing meets the deadline — minimise |T_D − T_R|, i.e.
	// deliver as soon as possible: the MCT pick.
	q, err := pickMCT(cfg, c)
	if err != nil && len(c.gpu) > 0 && !slices.Contains(c.elig, true) {
		return 0, ErrAllQuarantined
	}
	return q, err
}

// fastestGPUService returns T_GPU3: the service-time estimate of the
// fastest (widest) eligible GPU partition; +inf when none is eligible,
// so the CPU wins the speed test by default.
func fastestGPUService(widths []int, c *candidates) float64 {
	best, bestW := inf, -1
	for i, g := range c.est.GPUSeconds {
		if w := widths[i]; c.elig[i] && (w > bestW || (w == bestW && g < best)) {
			best, bestW = g, w
		}
	}
	return best
}

// firstInBD scans the GPU partitions in placement order and returns the
// first in P_BD; ok is false when P_BD holds none. Round-robin placement
// rotates the scan start by one per scan that places.
func firstInBD(p Placement, c *candidates) (q int, ok bool) {
	n := len(c.gpu)
	for k := 0; k < n; k++ {
		i := k // PlaceSlowestFirst: queue order is slow→fast by construction.
		switch p {
		case PlaceFastestFirst:
			i = n - 1 - k
		case PlaceRoundRobin:
			i = (c.rr + k) % n
		}
		if c.inBD(i) {
			if p == PlaceRoundRobin {
				c.rr = (c.rr + 1) % n
			}
			return i, true
		}
	}
	return 0, false
}

const inf = 1e300

// pickGPUOnly schedules like the paper but with the CPU partition
// removed from consideration: it marks the CPU window of this placement's
// candidate set invalid.
func pickGPUOnly(cfg *Config, c *candidates) (int, error) {
	c.est.CPUOK = false
	return pickPaper(cfg, c)
}

// pickCPUOnly places everything on the CPU processing queue.
func pickCPUOnly(_ *Config, c *candidates) (int, error) {
	if !c.est.CPUOK {
		return 0, ErrUnanswerable
	}
	return cpuQueue, nil
}

// pickMCT picks the earliest completion over every eligible partition.
func pickMCT(_ *Config, c *candidates) (int, error) {
	q, _, ok := c.earliest()
	if !ok {
		return 0, ErrUnanswerable
	}
	return q, nil
}

// pickMET picks the smallest service time, ignoring queue lengths.
func pickMET(_ *Config, c *candidates) (int, error) {
	q, best := cpuQueue, inf
	if c.est.CPUOK {
		best = c.est.CPUSeconds
	}
	for i, g := range c.est.GPUSeconds {
		// Translation is part of the work MET ignores queues for.
		if svc := g + c.est.TransSeconds; c.elig[i] && svc < best {
			q, best = i, svc
		}
	}
	if q == cpuQueue && !c.est.CPUOK {
		return 0, ErrUnanswerable
	}
	return q, nil
}

// pickRoundRobin cycles over the GPU partitions, then the CPU, skipping
// queues that cannot take the query.
func pickRoundRobin(_ *Config, c *candidates) (int, error) {
	slots := len(c.gpu) + 1 // the last slot is the CPU
	for k := 0; k < slots; k++ {
		slot := (c.rr + k) % slots
		if (slot == slots-1 && !c.est.CPUOK) || (slot < slots-1 && !c.elig[slot]) {
			continue
		}
		c.rr = (slot + 1) % slots
		if slot == slots-1 {
			return cpuQueue, nil
		}
		return slot, nil
	}
	return 0, ErrUnanswerable
}
