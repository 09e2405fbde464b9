package engine

import (
	"fmt"
	"sync"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// RealOutcome records one query's real execution.
type RealOutcome struct {
	ID      int64
	Queue   sched.QueueRef
	Result  table.ScanResult
	Latency time.Duration
	// EstServiceSeconds is the model's service-time estimate for the
	// chosen partition; ActServiceSeconds the measured service time. Their
	// ratio is the calibration error the feedback loop absorbs.
	EstServiceSeconds float64
	ActServiceSeconds float64
	// Attempts counts executions including the final one: 1 means the
	// first placement succeeded, more means failed attempts were re-booked
	// through the scheduler.
	Attempts int
	Err      error
}

// RealResult summarises a RunReal execution.
type RealResult struct {
	Queries    int
	Completed  int
	Failed     int
	Retried    int // queries that needed more than one attempt
	Elapsed    time.Duration
	Throughput float64 // completed queries per wall-clock second
	Outcomes   []RealOutcome
	SchedStats sched.Stats
}

// realJob carries a scheduled query to its partition worker.
type realJob struct {
	q        *query.Query
	decision sched.Decision
	est      sched.Estimates
	started  time.Time
	slot     int // index into outcomes
	attempt  int // 0-based attempt counter
	// snap is the epoch pinned at bind time (nil on static systems): the
	// worker answers exactly this snapshot no matter how much ingest or
	// compaction happens while the job queues. Retries keep the original
	// pin, so a query's answer is independent of how many attempts it took.
	snap *table.Snapshot
}

// feedback reports one job's actual − estimated service time on the
// system clock. schedMu serialises scheduler access: RunReal's workers,
// RunGrouped, Serve, Explain and the compaction pacer all share the one
// set of queue clocks.
func (s *System) feedback(ref sched.QueueRef, delta float64) {
	s.schedMu.Lock()
	s.scheduler.Feedback(ref, delta, s.nowS())
	s.schedMu.Unlock()
}

// reportGPU closes one GPU attempt's loop in one critical section: the
// service-time feedback, then the partition-health verdict.
func (s *System) reportGPU(ref sched.QueueRef, delta float64, err error) {
	s.schedMu.Lock()
	s.scheduler.Feedback(ref, delta, s.nowS())
	if err != nil {
		s.scheduler.ReportFailure(ref, s.nowS())
	} else {
		s.scheduler.ReportSuccess(ref)
	}
	s.schedMu.Unlock()
}

// retries returns the effective retry budget (negative config disables).
func (s *System) retries() int {
	if s.cfg.MaxRetries < 0 {
		return 0
	}
	return s.cfg.MaxRetries
}

// RunReal executes every query for real: the scheduler (driven by the wall
// clock) places each query; goroutine workers embody the partitions — one
// for the CPU cube partition, one for the translation partition and one
// per GPU partition. Queries routed to the GPU with text predicates pass
// through the translation worker first, exactly like the paper's pipeline.
//
// Feedback uses real measured service times, so estimation error in the
// calibrated models is corrected while the run proceeds.
//
// Failure handling: a failed GPU or translation attempt is re-booked
// through the normal scheduling path (Resubmit) with the query's original
// absolute deadline, so the retry competes with whatever slack remains.
// The scheduler's partition-health layer quarantines repeat offenders and
// the policy's own CPU preference provides the failover path; a query is
// reported failed only after its retry budget is spent or rescheduling
// itself fails (e.g. every GPU partition quarantined on a GPU-only query).
func (s *System) RunReal(queries []*query.Query) (*RealResult, error) {
	parts := s.cfg.Device.Partitions()
	res := &RealResult{Queries: len(queries), Outcomes: make([]RealOutcome, len(queries))}
	maxAttempts := 1 + s.retries()

	// Every channel is buffered for the full query count: at most one copy
	// of each job is in flight at a time (a retry re-enters exactly one
	// queue), so no send below can block forever and the single close
	// point after wg.Wait is safe.
	cpuCh := make(chan realJob, len(queries))
	transCh := make(chan realJob, len(queries))
	retryCh := make(chan realJob, len(queries))
	gpuCh := make([]chan realJob, len(parts))
	for i := range gpuCh {
		gpuCh[i] = make(chan realJob, len(queries))
	}

	start := time.Now()

	var wg sync.WaitGroup
	done := func(j realJob, r table.ScanResult, est, act float64, err error) {
		res.Outcomes[j.slot] = RealOutcome{
			ID: j.q.ID, Queue: j.decision.Queue, Result: r,
			Latency:           time.Since(j.started),
			EstServiceSeconds: est, ActServiceSeconds: act,
			Attempts: j.attempt + 1,
			Err:      err,
		}
		wg.Done()
	}
	route := func(j realJob) {
		switch {
		case j.decision.Queue.Kind == sched.QueueCPU:
			cpuCh <- j
		case j.est.NeedsTranslation:
			transCh <- j
		default:
			gpuCh[j.decision.Queue.Index] <- j
		}
	}

	// CPU cube partition worker. CPU failures are deterministic (a query
	// the cube set cannot answer fails the same way every time), so they
	// are not retried.
	go func() {
		for j := range cpuCh {
			t0 := time.Now()
			r, err := s.AnswerOnCPUAt(j.q, j.snap)
			act := time.Since(t0).Seconds()
			s.feedback(j.decision.Queue, act-j.est.CPUSeconds)
			done(j, r, j.est.CPUSeconds, act, err)
		}
	}()

	// Translation partition worker: translate, then forward to the GPU
	// queue chosen by the scheduler. Live systems translate against the
	// growing append dictionaries; codes for strings added after the
	// job's pinned epoch match no pinned row, so answers stay stable.
	// A dictionary miss storm (fault.DictLookup) fails the attempt and
	// sends it through the retry path like a GPU fault.
	go func() {
		transQueue := sched.QueueRef{Kind: sched.QueueCPU, Index: -1}
		for j := range transCh {
			t0 := time.Now()
			err := s.cfg.Faults.Check(fault.DictLookup, -1)
			if err == nil {
				_, err = query.Translate(j.q, s.dicts())
			}
			s.feedback(transQueue, time.Since(t0).Seconds()-j.est.TransSeconds)
			if err != nil {
				if j.attempt+1 < maxAttempts {
					retryCh <- j
					continue
				}
				done(j, table.ScanResult{}, j.est.TransSeconds, 0, err)
				continue
			}
			gpuCh[j.decision.Queue.Index] <- j
		}
	}()

	// GPU partition workers: record feedback and partition health for
	// every attempt, successful or not, then either finalise or hand the
	// failed job to the retry loop.
	for i := range parts {
		i := i
		go func() {
			for j := range gpuCh[i] {
				t0 := time.Now()
				r, err := s.AnswerOnGPUAt(j.q, i, j.snap)
				act := time.Since(t0).Seconds()
				s.reportGPU(j.decision.Queue, act-j.est.GPUSeconds[i], err)
				if err != nil && j.attempt+1 < maxAttempts {
					retryCh <- j
					continue
				}
				done(j, r, j.est.GPUSeconds[i], act, err)
			}
		}()
	}

	// Retry loop: re-book the failed job with its original absolute
	// deadline. Translation state rides the query itself (a retried job
	// that already translated skips the translation queue), so the
	// estimates are refreshed to match before rescheduling.
	go func() {
		for j := range retryCh {
			j.attempt++
			j.est.NeedsTranslation = j.q.NeedsTranslation()
			if !j.est.NeedsTranslation {
				j.est.TransSeconds = 0
			}
			s.schedMu.Lock()
			d, err := s.scheduler.Resubmit(s.nowS(), j.decision.Deadline, j.est)
			s.schedMu.Unlock()
			if err != nil {
				done(j, table.ScanResult{}, 0, 0,
					fmt.Errorf("engine: rescheduling query %d after failed attempt %d: %w", j.q.ID, j.attempt, err))
				continue
			}
			j.decision = d
			route(j)
		}
	}()

	// Drive: estimate, schedule, route. A submission error must not return
	// directly: the workers above block on their channels forever unless
	// every channel is closed, so the error is recorded, submission stops,
	// and the in-flight jobs drain before the single exit below.
	var submitErr error
	for slot, q0 := range queries {
		if q0.Grouped() {
			submitErr = fmt.Errorf("engine: query %d has GROUP BY; use RunGrouped", q0.ID)
			break
		}
		q := q0.Clone() // translation mutates the query
		est, err := s.Estimate(q)
		if err != nil {
			submitErr = fmt.Errorf("engine: estimating query %d: %w", q.ID, err)
			break
		}
		s.schedMu.Lock()
		d, err := s.scheduler.Submit(s.nowS(), est)
		s.schedMu.Unlock()
		if err != nil {
			submitErr = fmt.Errorf("engine: scheduling query %d: %w", q.ID, err)
			break
		}
		wg.Add(1)
		route(realJob{q: q, decision: d, est: est, started: time.Now(), slot: slot, snap: s.pin()})
	}
	wg.Wait()
	close(cpuCh)
	close(transCh)
	close(retryCh)
	for _, ch := range gpuCh {
		close(ch)
	}
	if submitErr != nil {
		return nil, submitErr
	}

	res.Elapsed = time.Since(start)
	for _, o := range res.Outcomes {
		if o.Err != nil {
			res.Failed++
		} else {
			res.Completed++
		}
		if o.Attempts > 1 {
			res.Retried++
		}
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.Throughput = float64(res.Completed) / secs
	}
	s.schedMu.Lock()
	res.SchedStats = s.scheduler.Stats()
	s.schedMu.Unlock()
	return res, nil
}
