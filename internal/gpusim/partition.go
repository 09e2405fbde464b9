package gpusim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybridolap/internal/table"
)

// StripesPerSM controls how many row stripes each simulated SM consumes.
// More stripes than SMs gives the same load-balancing slack real thread
// blocks give hardware SMs.
const StripesPerSM = 8

// Partition is a disjoint group of SMs with concurrent-kernel access to
// the whole device memory. Its five Execute* entry points are safe to call
// concurrently on different partitions (Fermi-style concurrent kernel
// execution); each call runs its own fork/join over the partition's SMs.
//
// Every entry point is the same pipeline:
//
//	step 1 — bind: after crossing the fault.GPUExec point, the request is
//	         validated and bound once per stripe of the snapshot
//	         (predicates resolved to columns and ordered by estimated
//	         selectivity), so no unit re-validates — and an invalid
//	         request fails the same way on empty and non-empty data;
//	step 2 — parallel table scan: the row space is cut into work units
//	         (cut: about SMs×StripesPerSM, never crossing a stripe; or the
//	         caller's chunk grid) and one goroutine per SM drains units
//	         from a shared cursor through the vectorized batch kernel;
//	step 3 — reduction: the entry point's own — a fold of per-unit
//	         partials in unit order everywhere except ExecuteGroup, so the
//	         same request over the same snapshot on the same partition
//	         returns bit-identical results no matter how the SMs
//	         interleave (retries and chaos differentials depend on this);
//	step 4 — final aggregation: the finalised aggregate returns to the
//	         caller (the CPU side), and Completed advances by one.
//
// A static system scans the device's resident one-stripe snapshot
// (Device.Resident); a live one pins an epoch snapshot at bind time, so a
// concurrently ingesting store never changes the row set mid-kernel. CPU
// preprocessing (query decomposition and text translation) happens before
// any entry point is called.
type Partition struct {
	id  int
	sms int
	dev *Device

	completed atomic.Int64
}

// ID returns the partition index within the layout.
func (p *Partition) ID() int { return p.id }

// SMs returns the number of streaming multiprocessors allocated.
func (p *Partition) SMs() int { return p.sms }

// Completed returns the number of kernels this partition has finished.
func (p *Partition) Completed() int64 { return p.completed.Load() }

// EstimateSeconds evaluates this partition's P_GPU for a query touching
// cols of totalCols columns.
func (p *Partition) EstimateSeconds(cols, totalCols int) (float64, error) {
	return p.dev.EstimateSeconds(p.sms, cols, totalCols)
}

// workUnit is one contiguous row range of one stripe: what an SM scans
// between two visits to the shared cursor.
type workUnit struct {
	stripe int
	lo, hi int
}

// cut splits the snapshot's row space into about SMs×StripesPerSM
// equal-length units that never cross a stripe boundary.
func (p *Partition) cut(snap *table.Snapshot) []workUnit {
	total := snap.Rows()
	want := min(p.sms*StripesPerSM, total)
	if want < 1 {
		return nil
	}
	unitLen := (total + want - 1) / want
	units := make([]workUnit, 0, want+len(snap.Stripes()))
	for i, st := range snap.Stripes() {
		for lo := 0; lo < st.Rows(); lo += unitLen {
			units = append(units, workUnit{stripe: i, lo: lo, hi: min(lo+unitLen, st.Rows())})
		}
	}
	return units
}

// bindStripes binds a request once per stripe of the snapshot, zero-row
// stripes included.
func bindStripes[P any](snap *table.Snapshot, bind func(*table.FactTable) (P, error)) ([]P, error) {
	if snap == nil {
		return nil, fmt.Errorf("gpusim: nil snapshot (no table loaded?)")
	}
	plans := make([]P, len(snap.Stripes()))
	for i, st := range snap.Stripes() {
		var err error
		if plans[i], err = bind(st.Table()); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// drain is the one fork/join of the package: one goroutine per SM takes
// unit indices from a shared cursor and runs them until the units are
// exhausted or its own run fails. Empty units are skipped (their slot in
// the caller's partials stays zero). It returns the first error in SM
// order; run(sm, i, u) may write only state owned by unit i or by SM sm.
func (p *Partition) drain(units []workUnit, run func(sm, i int, u workUnit) error) error {
	var (
		mu   sync.Mutex
		next int // shared unit cursor, under mu
		wg   sync.WaitGroup
	)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next - 1
	}
	errs := make([]error, min(p.sms, len(units)))
	for sm := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := take(); i < len(units); i = take() {
				u := units[i]
				if u.lo >= u.hi {
					continue
				}
				if err := run(sm, i, u); err != nil {
					errs[sm] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scanUnits drains the units through the bound scalar plans and returns
// one UNFINALIZED partial per unit, in unit order. Each partial is one
// vectorized plan.Range over its unit, and the batch kernels accumulate
// strictly in row order, so a unit's bits depend only on the rows inside
// it — not on which SM drained it.
func (p *Partition) scanUnits(plans []*table.ScanPlan, units []workUnit) ([]table.ScanResult, error) {
	partials := make([]table.ScanResult, len(units))
	err := p.drain(units, func(_, i int, u workUnit) (err error) {
		partials[i], err = plans[u.stripe].Range(u.lo, u.hi)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.done()
	return partials, nil
}

// Execute answers a scalar request over the snapshot: per-unit partials
// merge in unit order.
func (p *Partition) Execute(snap *table.Snapshot, req table.ScanRequest) (table.ScanResult, error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return table.ScanResult{}, err
	}
	plans, err := bindStripes(snap, func(ft *table.FactTable) (*table.ScanPlan, error) {
		return table.BindScan(ft, req)
	})
	if err != nil {
		return table.ScanResult{}, err
	}
	partials, err := p.scanUnits(plans, p.cut(snap))
	if err != nil {
		return table.ScanResult{}, err
	}
	var acc table.ScanResult
	for _, part := range partials {
		acc = table.Merge(req.Op, acc, part)
	}
	return table.Finalize(req.Op, acc), nil
}

// ExecuteGroup answers a grouped request over the snapshot. The scan
// builds one hash table per SM keyed by the packed group key, accumulated
// across every unit that SM drains (not one per unit); the tables merge in
// SM order and the finalised per-group rows return sorted by key. Which
// units an SM drains depends on goroutine interleaving, so sum/avg are
// only epsilon-close run to run; count/min/max are exact.
func (p *Partition) ExecuteGroup(snap *table.Snapshot, req table.GroupScanRequest) ([]table.GroupRow, error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return nil, err
	}
	plans, err := bindStripes(snap, func(ft *table.FactTable) (*table.GroupScanPlan, error) {
		return table.BindGroupScan(ft, req)
	})
	if err != nil {
		return nil, err
	}
	perSM := make([]table.Groups, p.sms)
	err = p.drain(p.cut(snap), func(sm, _ int, u workUnit) (err error) {
		perSM[sm], err = plans[u.stripe].RangeInto(u.lo, u.hi, perSM[sm])
		return err
	})
	if err != nil {
		return nil, err
	}
	var acc table.Groups
	for _, g := range perSM {
		acc = table.MergeGroups(req.Op, acc, g)
	}
	p.done()
	return table.FinalizeGroups(req.Op, acc, len(req.GroupBy)), nil
}

func (p *Partition) done() { p.completed.Add(1) }
