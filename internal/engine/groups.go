package engine

import (
	"fmt"

	"hybridolap/internal/query"
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
// the given epoch snapshot.
func (s *System) answerGroupsOnCPUAt(q *query.Query, snap *table.Snapshot) ([]table.GroupRow, error) {
	if !q.Grouped() {
		return nil, fmt.Errorf("engine: query %d has no GROUP BY", q.ID)
	}
	cs, box, r, empty, err := s.cpuBox(q, snap)
	if err != nil || empty {
		return nil, err
	}
	groups, err := q.CubeGroupLevels()
	if err != nil {
		return nil, err
	}
	m, err := cs.AggregateGroups(box, r, groups, s.cfg.CPUThreads)
	if err != nil {
		return nil, err
	}
	acc := make(table.Groups, len(m))
	for k, agg := range m {
		acc[k] = agg.Result(q.Op)
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
