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
//	         from a shared cursor through the vectorized batch kernel
//	         (steps 1 and 2 are scan, shared by all five);
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

// bindStripes binds the members once per stripe of the snapshot, zero-row
// stripes included.
func bindStripes(snap *table.Snapshot, members []table.Member) ([]*table.Plan, error) {
	if snap == nil {
		return nil, fmt.Errorf("gpusim: nil snapshot (no table loaded?)")
	}
	plans := make([]*table.Plan, len(snap.Stripes()))
	for i, st := range snap.Stripes() {
		var err error
		if plans[i], err = table.Bind(st.Table(), members); err != nil {
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

// scan is what every entry point shares: cross the fault point, bind the
// members once per stripe, cut the row space and drain the units through
// the one vectorized kernel. states[i] holds the member states unit i
// accumulated (nil for an empty unit, which never runs) — or, with perSM,
// what SM i accumulated over every unit it drained. The kernel accumulates
// strictly in row order, so a unit's bits depend only on the rows inside
// it — not on which SM drained it. Completed advances only when every unit
// ran.
func (p *Partition) scan(snap *table.Snapshot, members []table.Member, cut func(*table.Snapshot) []workUnit,
	perSM bool) (plans []*table.Plan, states [][]table.State, err error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return nil, nil, err
	}
	if plans, err = bindStripes(snap, members); err != nil {
		return nil, nil, err
	}
	units := cut(snap)
	slots := len(units)
	if perSM {
		slots = p.sms
	}
	states = make([][]table.State, slots)
	err = p.drain(units, func(sm, i int, u workUnit) error {
		if perSM {
			i = sm
		}
		// Each SM allocates the states it fills: the kernel writes them
		// once per batch, so neighbouring units' states stay off each
		// other's cache lines.
		if states[i] == nil {
			states[i] = make([]table.State, len(members))
		}
		return plans[u.stripe].RangeInto(u.lo, u.hi, states[i])
	})
	if err != nil {
		return nil, nil, err
	}
	p.done()
	return plans, states, nil
}

// scalars returns member mi's scalar partial of every unit, in unit order.
func scalars(states [][]table.State, mi int) []table.ScanResult {
	out := make([]table.ScanResult, len(states))
	for i, st := range states {
		if st != nil {
			out[i] = st[mi].Scalar
		}
	}
	return out
}

// groups is scalars for a keyed member: one map per unit, nil where no
// row matched.
func groups(states [][]table.State, mi int) []table.Groups {
	out := make([]table.Groups, len(states))
	for i, st := range states {
		if st != nil {
			out[i] = st[mi].Groups
		}
	}
	return out
}

// Execute answers a scalar request over the snapshot: per-unit partials
// merge in unit order.
func (p *Partition) Execute(snap *table.Snapshot, req table.ScanRequest) (table.ScanResult, error) {
	_, states, err := p.scan(snap, []table.Member{{ScanRequest: req}}, p.cut, false)
	if err != nil {
		return table.ScanResult{}, err
	}
	var acc table.ScanResult
	for _, part := range scalars(states, 0) {
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
	m, err := table.GroupMember(req)
	if err != nil {
		return nil, err
	}
	_, states, err := p.scan(snap, []table.Member{m}, p.cut, true)
	if err != nil {
		return nil, err
	}
	var acc table.Groups
	for _, g := range groups(states, 0) {
		acc = table.MergeGroups(req.Op, acc, g)
	}
	return table.FinalizeGroups(req.Op, acc, len(req.GroupBy)), nil
}

func (p *Partition) done() { p.completed.Add(1) }
