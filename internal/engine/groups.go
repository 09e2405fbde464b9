package engine

import (
	"fmt"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// AnswerGroupsOnCPU answers a grouped query from the cube set at the
// current epoch. The picked cube must be at least as fine as every
// condition and grouping level; the aggregates per group are exact (cube
// cells compose).
func (s *System) AnswerGroupsOnCPU(q *query.Query) ([]table.GroupRow, error) {
	return s.answerGroupsOnCPUAt(q, s.pin())
}

// answerGroupsOnCPUAt answers a grouped query from the cube set riding
// the given epoch snapshot (nil means the static configuration).
func (s *System) answerGroupsOnCPUAt(q *query.Query, snap *table.Snapshot) ([]table.GroupRow, error) {
	cs := s.cubesAt(snap)
	if cs == nil {
		return nil, fmt.Errorf("engine: no cube set configured")
	}
	if !q.Grouped() {
		return nil, fmt.Errorf("engine: query %d has no GROUP BY", q.ID)
	}
	if !s.cpuCanAnswerWith(q, cs) {
		return nil, fmt.Errorf("engine: grouped query %d cannot be answered from the cube set", q.ID)
	}
	r := q.Resolution()
	box, empty, err := q.Box(cs.Schema(), r)
	if err != nil {
		return nil, err
	}
	if empty {
		return nil, nil
	}
	groups, err := q.CubeGroupLevels()
	if err != nil {
		return nil, err
	}
	m, err := cs.AggregateGroups(box, r, groups, s.cfg.CPUThreads)
	if err != nil {
		return nil, err
	}
	// Convert cube aggregates to finalised group rows.
	acc := make(table.Groups, len(m))
	for k, agg := range m {
		v, _ := aggValue(q.Op, agg)
		switch q.Op {
		case table.AggAvg:
			// Finalize divides; hand it the raw sum.
			acc[k] = table.ScanResult{Value: agg.Sum, Rows: agg.Count}
		case table.AggCount:
			acc[k] = table.ScanResult{Rows: agg.Count}
		default:
			acc[k] = table.ScanResult{Value: v, Rows: agg.Count}
		}
	}
	return table.FinalizeGroups(q.Op, acc, len(q.GroupBy)), nil
}

// AnswerGroupsOnGPU answers a (translated) grouped query on one GPU
// partition at the current epoch.
func (s *System) AnswerGroupsOnGPU(q *query.Query, partition int) ([]table.GroupRow, error) {
	return s.AnswerGroupsOnGPUAt(q, partition, s.pin())
}

// ReferenceGroups answers a grouped query by a sequential scan — the
// ground truth both paths must match.
func (s *System) ReferenceGroups(q *query.Query) ([]table.GroupRow, error) {
	return s.ReferenceGroupsAt(q, s.pin())
}

// RunGrouped schedules one grouped query with the Fig. 10 algorithm (its
// estimates already include the grouping columns in C_QD) and executes it
// synchronously on the chosen partition. Grouped queries are interactive
// drill-downs, so the synchronous path matches how they are used: a
// failed GPU attempt reports partition health and is re-booked inline
// (same absolute deadline) until the retry budget runs out.
func (s *System) RunGrouped(q *query.Query) ([]table.GroupRow, string, error) {
	qq := q.Clone()
	est, err := s.Estimate(qq)
	if err != nil {
		return nil, "", err
	}
	s.schedMu.Lock()
	d, err := s.scheduler.Submit(s.nowS(), est)
	s.schedMu.Unlock()
	if err != nil {
		return nil, "", err
	}
	snap := s.pin() // bind-time epoch: stable across translation + scan
	for attempt := 0; ; attempt++ {
		rows, route, err := s.groupedAttempt(qq, est, d, snap)
		// CPU failures are deterministic, so only translation and GPU
		// attempts are re-booked.
		if err == nil || d.Queue.Kind == sched.QueueCPU || attempt+1 >= 1+s.retries() {
			return rows, route, err
		}
		est.NeedsTranslation = qq.NeedsTranslation()
		if !est.NeedsTranslation {
			est.TransSeconds = 0
		}
		s.schedMu.Lock()
		d, err = s.scheduler.Resubmit(s.nowS(), d.Deadline, est)
		s.schedMu.Unlock()
		if err != nil {
			return nil, "", err
		}
	}
}

// groupedAttempt runs one booked attempt of a grouped query — translation
// if still owed, then the chosen partition — and reports what each step
// took (and, for a GPU partition, its health) back to the scheduler.
func (s *System) groupedAttempt(qq *query.Query, est sched.Estimates, d sched.Decision, snap *table.Snapshot) ([]table.GroupRow, string, error) {
	if qq.NeedsTranslation() {
		// Translation rides the chaos layer like every other dictionary
		// path: an injected miss storm (fault.DictLookup) fails this
		// attempt and goes through the retry budget with the same absolute
		// deadline — not through partition health, which the dictionary
		// cannot implicate.
		t0 := time.Now()
		err := s.cfg.Faults.Check(fault.DictLookup, -1)
		if err == nil {
			_, err = query.Translate(qq, s.dicts())
		}
		s.feedback(sched.QueueRef{Kind: sched.QueueCPU, Index: -1}, time.Since(t0).Seconds()-est.TransSeconds)
		if err != nil {
			return nil, "", err
		}
	}
	t0 := time.Now()
	if d.Queue.Kind == sched.QueueCPU {
		rows, err := s.answerGroupsOnCPUAt(qq, snap)
		s.feedback(d.Queue, time.Since(t0).Seconds()-est.CPUSeconds)
		return rows, "cpu", err
	}
	rows, err := s.AnswerGroupsOnGPUAt(qq, d.Queue.Index, snap)
	s.reportGPU(d.Queue, time.Since(t0).Seconds()-est.GPUSeconds[d.Queue.Index], err)
	return rows, d.Queue.String(), err
}
