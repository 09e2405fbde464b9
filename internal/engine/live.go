package engine

import (
	"fmt"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/dict"
	"hybridolap/internal/gpusim"
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

// cpuAnswer is the CPU side of Fig. 10 for a query of either shape: the
// cube walk over the set riding the pinned epoch, finalised.
func (s *System) cpuAnswer(q *query.Query, snap *table.Snapshot) (gpusim.Answer, error) {
	st, err := CubeWalk(q, s.cubesAt(snap), s.cfg.CPUThreads)
	if err != nil {
		return gpusim.Answer{}, err
	}
	scale := snap.Schema().MeasureScale(q.Measure)
	if !q.Grouped() {
		return gpusim.Answer{Result: table.Finalize(q.Op, scale, st.Scalar), Partial: st}, nil
	}
	if st.Groups == nil { // an empty box: nil rows, as for an empty GPU member
		return gpusim.Answer{}, nil
	}
	return gpusim.Answer{Groups: table.FinalizeGroups(q.Op, scale, st.Groups, len(q.GroupBy)), Partial: st}, nil
}

// gpuAnswer is the GPU side of Fig. 10 for a (translated) query of either
// shape: its one member, alone on one partition, over the pinned epoch.
func (s *System) gpuAnswer(q *query.Query, partition int, snap *table.Snapshot) (gpusim.Answer, error) {
	parts := s.cfg.Device.Partitions()
	if partition < 0 || partition >= len(parts) {
		return gpusim.Answer{}, fmt.Errorf("engine: partition %d out of range", partition)
	}
	m, empty, err := q.Member(s.cfg.Table.Schema())
	if err != nil || empty {
		return gpusim.Answer{}, err
	}
	ans, err := parts[partition].Execute(snap, []table.Member{m})
	if err != nil {
		return gpusim.Answer{}, err
	}
	return ans[0], nil
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
	m, empty, err := qq.Member(s.cfg.Table.Schema())
	if err != nil || empty {
		return nil, err
	}
	if s.cfg.Live == nil {
		return table.GroupScan(s.cfg.Table, m)
	}
	return table.GroupScanSnapshot(snap, m)
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
