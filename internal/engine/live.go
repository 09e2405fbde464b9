package engine

import (
	"fmt"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/dict"
	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// Live returns the attached ingest store, or nil for a static system.
func (s *System) Live() *ingest.Store { return s.cfg.Live }

// Dicts returns the dictionary set queries translate against and group
// labels decode through: the live store's growing append dictionaries on
// a live system, the static table's frozen ones otherwise.
func (s *System) Dicts() *dict.Set { return s.dicts() }

// pin pins the current epoch snapshot — on a static system the device's
// resident one-stripe epoch-0 snapshot, so it never returns nil. Every
// query path pins exactly once, at bind time; everything downstream
// (translation targets, stripe scans, the cube set) reads the pinned
// epoch, so concurrent ingest and compaction never shift a query's row
// set mid-flight.
func (s *System) pin() *table.Snapshot {
	if s.cfg.Live == nil {
		return s.cfg.Device.Resident()
	}
	return s.cfg.Live.Current()
}

// dicts returns the dictionary set queries translate against: the live
// store's growing append dictionaries, or the static table's frozen ones.
func (s *System) dicts() *dict.Set {
	if s.cfg.Live != nil {
		return s.cfg.Live.Dicts()
	}
	return s.cfg.Table.Dicts()
}

// cubesAt returns the cube set that answers CPU queries at the given
// epoch: the snapshot's incrementally maintained set when one rides the
// epoch, otherwise (always, on a static system) the configured set.
func (s *System) cubesAt(snap *table.Snapshot) *cube.Set {
	if cs, ok := snap.Aux().(*cube.Set); ok && cs != nil {
		return cs
	}
	return s.cfg.Cubes
}

// cpuCanAnswer reports whether the cube set can answer the query at all:
// no text predicates (cubes aggregate over hierarchies only) and the
// query's measure is the one the cubes aggregate (count queries read no
// measure, so any cube set works).
func cpuCanAnswer(q *query.Query, cs *cube.Set) bool {
	if q.GPUOnly() {
		return false
	}
	return q.Op == table.AggCount || q.Measure == cs.Measure()
}

// AnswerOnCPUAt answers a query from the cube set riding the given pinned
// epoch snapshot.
func (s *System) AnswerOnCPUAt(q *query.Query, snap *table.Snapshot) (table.ScanResult, error) {
	cs, box, r, empty, err := s.cpuBox(q, snap)
	if err != nil || empty {
		return table.ScanResult{}, err
	}
	agg, _, err := cs.Aggregate(box, r, s.cfg.CPUThreads)
	if err != nil {
		return table.ScanResult{}, err
	}
	return table.Finalize(q.Op, agg.Result(q.Op)), nil
}

// cpuBox opens both CPU answerers: the cube set riding the epoch, the
// check that it can answer q, and q's box at q's resolution r. empty
// reports a box no cell falls in.
func (s *System) cpuBox(q *query.Query, snap *table.Snapshot) (cs *cube.Set, box cube.Box, r int, empty bool, err error) {
	cs = s.cubesAt(snap)
	if cs == nil {
		return nil, nil, 0, false, fmt.Errorf("engine: no cube set configured")
	}
	if !cpuCanAnswer(q, cs) {
		return nil, nil, 0, false, fmt.Errorf("engine: query %d (measure %d, %d text predicates) cannot be answered from the cube set",
			q.ID, q.Measure, len(q.TextConds))
	}
	r = q.Resolution()
	box, empty, err = q.Box(cs.Schema(), r)
	return cs, box, r, empty, err
}

// AnswerOnGPUAt answers a (translated) query on a GPU partition over the
// given pinned epoch snapshot.
func (s *System) AnswerOnGPUAt(q *query.Query, partition int, snap *table.Snapshot) (table.ScanResult, error) {
	parts := s.cfg.Device.Partitions()
	if partition < 0 || partition >= len(parts) {
		return table.ScanResult{}, fmt.Errorf("engine: partition %d out of range", partition)
	}
	req, empty, err := q.ToScanRequest(s.cfg.Table.Schema())
	if err != nil {
		return table.ScanResult{}, err
	}
	if empty {
		return table.ScanResult{}, nil
	}
	return parts[partition].Execute(snap, req)
}

// ReferenceAt answers a query by a sequential scan of the given pinned
// epoch snapshot — the ground truth. A static system keeps the
// row-at-a-time oracle over its one table.
//
// olaplint:faultexempt: reference executor — the oracle every
// fault-injected path is checked against; injecting a dictionary fault
// here would fail the ground truth itself, not the system under test.
func (s *System) ReferenceAt(q *query.Query, snap *table.Snapshot) (table.ScanResult, error) {
	qq := q.Clone()
	if qq.NeedsTranslation() {
		if _, err := query.Translate(qq, s.dicts()); err != nil {
			return table.ScanResult{}, err
		}
	}
	req, empty, err := qq.ToScanRequest(s.cfg.Table.Schema())
	if err != nil {
		return table.ScanResult{}, err
	}
	if empty {
		return table.ScanResult{}, nil
	}
	if s.cfg.Live == nil {
		return table.Scan(s.cfg.Table, req)
	}
	return table.ScanSnapshot(snap, req)
}

// AnswerGroupsOnGPUAt answers a (translated) grouped query on a GPU
// partition over the given epoch snapshot.
func (s *System) AnswerGroupsOnGPUAt(q *query.Query, partition int, snap *table.Snapshot) ([]table.GroupRow, error) {
	parts := s.cfg.Device.Partitions()
	if partition < 0 || partition >= len(parts) {
		return nil, fmt.Errorf("engine: partition %d out of range", partition)
	}
	req, empty, err := q.ToGroupScanRequest(s.cfg.Table.Schema())
	if err != nil {
		return nil, err
	}
	if empty {
		return nil, nil
	}
	return parts[partition].ExecuteGroup(snap, req)
}

// ReferenceGroupsAt answers a grouped query by a sequential scan of the
// given pinned epoch snapshot (row-at-a-time on a static system, like
// ReferenceAt).
//
// olaplint:faultexempt: reference executor — the oracle every
// fault-injected path is checked against; injecting a dictionary fault
// here would fail the ground truth itself, not the system under test.
func (s *System) ReferenceGroupsAt(q *query.Query, snap *table.Snapshot) ([]table.GroupRow, error) {
	qq := q.Clone()
	if qq.NeedsTranslation() {
		if _, err := query.Translate(qq, s.dicts()); err != nil {
			return nil, err
		}
	}
	req, empty, err := qq.ToGroupScanRequest(s.cfg.Table.Schema())
	if err != nil {
		return nil, err
	}
	if empty {
		return nil, nil
	}
	if s.cfg.Live == nil {
		return table.GroupScan(s.cfg.Table, req)
	}
	return table.GroupScanSnapshot(snap, req)
}

// Ingest forwards a batch to the live store and returns the first epoch
// in which it is visible.
func (s *System) Ingest(b *ingest.Batch) (*table.Snapshot, error) {
	if s.cfg.Live == nil {
		return nil, fmt.Errorf("engine: no live store attached")
	}
	return s.cfg.Live.Ingest(b)
}

// schedPacer routes compaction cost through the scheduler's CPU
// processing queue: Begin books the estimated merge time (so concurrent
// query placement sees the queue busy and T_Q stays honest) and the
// returned done feeds the actual-vs-estimated delta back, exactly like a
// query worker.
type schedPacer struct {
	sys *System
}

// compactionEstimate prices merging the given byte volume with the CPU
// aggregation model: a stripe merge is a sequential columnar copy, the
// same memory-bound work profile the model calibrates.
func (p *schedPacer) estimate(bytes int64) float64 {
	mb := float64(bytes) / (1 << 20)
	t, err := p.sys.cfg.Estimator.CPUTime(p.sys.cfg.CPUThreads, mb)
	if err != nil {
		// No CPU model configured: book zero time; pacing degrades to
		// counting jobs only.
		return 0
	}
	return t
}

func (p *schedPacer) Begin(bytes int64) (done func()) {
	est := p.estimate(bytes)
	p.sys.schedMu.Lock()
	p.sys.scheduler.SubmitMaintenance(p.sys.nowS(), est)
	p.sys.schedMu.Unlock()
	t0 := time.Now()
	return func() {
		p.sys.feedback(sched.QueueRef{Kind: sched.QueueCPU}, time.Since(t0).Seconds()-est)
	}
}

// CompactionPacer returns an ingest.Pacer wired to this system's
// scheduler, for ingest.Config.Pacer.
func (s *System) CompactionPacer() ingest.Pacer {
	return &schedPacer{sys: s}
}
