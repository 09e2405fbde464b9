package engine

import (
	"fmt"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// job is one query on the real path: what the attempt loop books, answers
// and, on failure, re-books.
type job struct {
	q *query.Query // a clone: translation mutates it
	// snap is the epoch pinned at bind time. Every attempt answers exactly
	// this snapshot whatever ingest and compaction do meanwhile, so an
	// answer does not depend on how many attempts it took.
	snap *table.Snapshot
	est  sched.Estimates
	// d is the current booking. d.Deadline, the absolute T_D on the nowS
	// clock, is zero until the first booking — a Submit — stamps now + T_C;
	// every later booking is a Resubmit against the same T_D, so a retry
	// competes for the slack that remains instead of earning a fresh T_C.
	// A member of a failed fused job arrives with its arrival + T_C set.
	d        sched.Decision
	attempts int
}

// newJob clones the caller's query, prices it (Fig. 10 step 2) and pins
// the epoch it will answer.
func (s *System) newJob(q *query.Query) (job, error) {
	qq := q.Clone()
	est, err := s.Estimate(qq)
	return job{q: qq, snap: s.pin(), est: est}, err
}

// transQueue names the queue the scheduler books translation on: the
// text-to-integer translation partition, or the CPU processing partition
// under the TransOnCPUQueue ablation.
func (s *System) transQueue() sched.QueueRef {
	if s.cfg.Sched.Translation == sched.TransOnCPUQueue {
		return sched.QueueRef{Kind: sched.QueueCPU}
	}
	return sched.QueueRef{Kind: sched.QueueCPU, Index: -1}
}

// book places the job with the configured policy and commits the chosen
// queue's clock (see job.d for Submit against Resubmit).
func (s *System) book(j *job) error {
	var d sched.Decision
	var err error
	if j.d.Deadline == 0 {
		d, err = s.scheduler.Submit(s.nowS(), j.est)
	} else {
		d, err = s.scheduler.Resubmit(s.nowS(), j.d.Deadline, j.est)
	}
	if err == nil {
		j.d = d // a failed re-booking leaves the last placement on record
	}
	return err
}

// translate resolves the text conditions that still owe it, behind the
// fault.DictLookup injection point. Live systems translate against the
// growing append dictionaries; codes for strings added after the query's
// pinned epoch match no pinned row, so answers stay stable.
func (s *System) translate(q *query.Query) error {
	if err := s.cfg.Faults.Check(fault.DictLookup, -1); err != nil {
		return err
	}
	_, err := query.Translate(q, s.dicts())
	return err
}

// attempt runs one booked attempt — the translation partition first when
// text predicates still owe it, like the paper's pipeline, then the chosen
// partition — and settles the booking with what each step took. A failed
// translation spends retry budget but never partition health, which the
// dictionary cannot implicate: the processing job behind it never ran.
func (s *System) attempt(j *job) (out gpusim.Answer, err error) {
	var o sched.Outcome
	if j.q.NeedsTranslation() {
		t0 := time.Now()
		err = s.translate(j.q)
		o.TransSeconds = time.Since(t0).Seconds()
	}
	if err == nil {
		ref := j.d.Queue
		t0 := time.Now()
		if ref.Kind == sched.QueueCPU {
			out, err = s.cpuAnswer(j.q, j.snap)
		} else {
			out, err = s.gpuAnswer(j.q, ref.Index, j.snap)
		}
		o.Ran, o.Seconds, o.Failed = true, time.Since(t0).Seconds(), err != nil
	}
	s.scheduler.Settle(j.d, s.nowS(), o)
	return out, err
}

// run is Fig. 10 for one query from start to finish, on the caller's
// goroutine: book it, run the booked attempt and, while it fails, re-book
// it through the normal scheduling path against its original deadline.
// Partition health quarantines repeat offenders and the policy's own CPU
// preference is the failover path, so a query fails only when its retry
// budget (MaxRetries; negative disables) is spent, when re-booking itself
// fails (every GPU partition quarantined under a GPU-only query) or on the
// CPU, whose failures are deterministic: a query the cube set cannot
// answer fails the same way every time.
func (s *System) run(j *job) (gpusim.Answer, error) {
	if err := s.book(j); err != nil {
		return gpusim.Answer{}, err
	}
	for {
		j.attempts++
		out, err := s.attempt(j)
		if err == nil || j.d.Queue.Kind == sched.QueueCPU || j.attempts > s.cfg.MaxRetries {
			return out, err
		}
		// Translation state rides the query: a retry that has already
		// translated owes the translation queue nothing.
		j.est.NeedsTranslation = j.q.NeedsTranslation()
		if !j.est.NeedsTranslation {
			j.est.TransSeconds = 0
		}
		if err := s.book(j); err != nil {
			return gpusim.Answer{}, fmt.Errorf("engine: rescheduling query %d after failed attempt %d: %w", j.q.ID, j.attempts, err)
		}
	}
}
