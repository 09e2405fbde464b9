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
	d          sched.Decision
	attempts   int
	estS, actS float64 // service time of the step that ended the last attempt
}

// newJob clones the caller's query, prices it (Fig. 10 step 2) and pins
// the epoch it will answer.
func (s *System) newJob(q *query.Query) (job, error) {
	qq := q.Clone()
	est, err := s.Estimate(qq)
	return job{q: qq, snap: s.pin(), est: est}, err
}

// answerer is how one kind of query is answered on either side, over a
// pinned epoch; the GPU side takes the partition index.
type answerer[T any] struct {
	cpu func(*System, *query.Query, *table.Snapshot) (T, error)
	gpu func(*System, *query.Query, int, *table.Snapshot) (T, error)
}

var (
	scalar  = answerer[table.ScanResult]{(*System).AnswerOnCPUAt, (*System).AnswerOnGPUAt}
	grouped = answerer[[]table.GroupRow]{(*System).answerGroupsOnCPUAt, (*System).AnswerGroupsOnGPUAt}
)

// lanes holds one mutex per queue (translation, CPU, then the GPU
// partitions) for the jobs of one RunReal batch: a partition works one job
// at a time, so of a batch spread over several goroutines at most one job
// executes per queue. Separate calls are not serialised against each other
// (concurrent Serve calls overlap on a partition): their lanes are nil,
// and every lock of a nil lanes is free.
type lanes []sync.Mutex

type free struct{}

func (free) Lock()   {}
func (free) Unlock() {}

// transQueue is the text-to-integer translation partition.
var transQueue = sched.QueueRef{Kind: sched.QueueCPU, Index: -1}

// lane indexes lanes: the CPU partition is queue index 0, translation −1.
func lane(ref sched.QueueRef) int {
	if ref.Kind == sched.QueueGPU {
		return 2 + ref.Index
	}
	return 1 + ref.Index
}

func (l lanes) of(ref sched.QueueRef) sync.Locker {
	if l == nil {
		return free{}
	}
	return &l[lane(ref)]
}

// feedback reports one step's actual − estimated service time on the
// system clock.
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

// book places the job with the configured policy and commits the chosen
// queue's clock (see job.d for Submit against Resubmit).
func (s *System) book(j *job) error {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
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
// partition — and feeds what each step took back to the scheduler. A
// failed translation spends retry budget but never partition health, which
// the dictionary cannot implicate.
func attempt[T any](s *System, j *job, l lanes, by answerer[T]) (out T, err error) {
	if j.q.NeedsTranslation() {
		mu := l.of(transQueue)
		mu.Lock()
		t0 := time.Now()
		err = s.translate(j.q)
		s.feedback(transQueue, time.Since(t0).Seconds()-j.est.TransSeconds)
		mu.Unlock()
		if err != nil {
			j.estS, j.actS = j.est.TransSeconds, 0
			return out, err
		}
	}
	ref := j.d.Queue
	mu := l.of(ref)
	mu.Lock()
	defer mu.Unlock()
	t0 := time.Now()
	if ref.Kind == sched.QueueCPU {
		out, err = by.cpu(s, j.q, j.snap)
		j.estS, j.actS = j.est.CPUSeconds, time.Since(t0).Seconds()
		s.feedback(ref, j.actS-j.estS)
	} else {
		out, err = by.gpu(s, j.q, ref.Index, j.snap)
		j.estS, j.actS = j.est.GPUSeconds[ref.Index], time.Since(t0).Seconds()
		s.reportGPU(ref, j.actS-j.estS, err)
	}
	return out, err
}

// execute is the real path's one attempt loop, on the caller's goroutine:
// run the booked attempt and, while it fails, re-book it through the
// normal scheduling path against its original deadline. Partition health
// quarantines repeat offenders and the policy's own CPU preference is the
// failover path, so a query fails only when its retry budget (MaxRetries;
// negative disables) is spent, when re-booking itself fails (every GPU
// partition quarantined under a GPU-only query) or on the CPU, whose
// failures are deterministic: a query the cube set cannot answer fails the
// same way every time.
func execute[T any](s *System, j *job, l lanes, by answerer[T]) (T, error) {
	for {
		j.attempts++
		out, err := attempt(s, j, l, by)
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
			var zero T
			return zero, fmt.Errorf("engine: rescheduling query %d after failed attempt %d: %w", j.q.ID, j.attempts, err)
		}
	}
}

// run is Fig. 10 for one query from start to finish: book, then execute.
func run[T any](s *System, j *job, by answerer[T]) (T, error) {
	if err := s.book(j); err != nil {
		var zero T
		return zero, err
	}
	return execute(s, j, nil, by)
}

// RunReal executes a batch of scalar queries for real, on the wall clock.
// Every query is priced and booked in input order on the calling
// goroutine; the batch then fans out over the queues it booked, one
// goroutine per queue taking its jobs through the attempt loop in booking
// order, so partitions work concurrently and at most one job of the batch
// executes per queue. The first queue booked stays on the calling
// goroutine: a batch on one queue — every single query — starts none.
//
// Feedback uses real measured service times, so estimation error in the
// calibrated models is corrected while the run proceeds.
func (s *System) RunReal(queries []*query.Query) (*RealResult, error) {
	start := time.Now()
	res := &RealResult{Queries: len(queries), Outcomes: make([]RealOutcome, len(queries))}
	jobs := make([]job, len(queries))
	l := make(lanes, 2+len(s.widths))
	byLane := make([][]int, len(l))

	// A query that cannot be booked ends the submission, but the bookings
	// before it hold queue time: they execute before the error returns.
	var submitErr error
	for slot, q := range queries {
		if q.Grouped() {
			submitErr = fmt.Errorf("engine: query %d has GROUP BY; use Serve", q.ID)
			break
		}
		j, err := s.newJob(q)
		if err != nil {
			submitErr = fmt.Errorf("engine: estimating query %d: %w", q.ID, err)
			break
		}
		if err := s.book(&j); err != nil {
			submitErr = fmt.Errorf("engine: scheduling query %d: %w", q.ID, err)
			break
		}
		jobs[slot] = j
		byLane[lane(j.d.Queue)] = append(byLane[lane(j.d.Queue)], slot)
	}

	runLane := func(slots []int) {
		for _, slot := range slots {
			j := &jobs[slot]
			r, err := execute(s, j, l, scalar)
			res.Outcomes[slot] = RealOutcome{
				ID: j.q.ID, Queue: j.d.Queue, Result: r,
				Latency:           time.Since(start),
				EstServiceSeconds: j.estS, ActServiceSeconds: j.actS,
				Attempts: j.attempts, Err: err,
			}
		}
	}
	var mine []int
	var wg sync.WaitGroup
	for _, slots := range byLane {
		switch {
		case len(slots) == 0:
		case mine == nil:
			mine = slots
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				runLane(slots)
			}()
		}
	}
	runLane(mine)
	wg.Wait()
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
