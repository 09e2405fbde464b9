package gpusim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybridolap/internal/table"
)

// BlockRows is the length of one work unit: unit k of a snapshot is its
// logical rows [k·BlockRows, (k+1)·BlockRows), whatever partition scans it
// and however the rows are grouped into stripes. A performance constant
// only: partials are exact integer units, so no answer's bits depend on it.
// 32 batches is the unit length the 4-SM partitions' old width-dependent
// cut had at the benchmark's 1M rows (31 units now, 32 then), and a
// 100K-row table still forks over four units. BenchmarkExecute at 1M rows, units of 8 to 128 batches: the scalar
// sum and the 4-group GROUP BY are flat at every width; the shapes that keep
// one hash table per unit (a 32 768-group GROUP BY, a cell-granted anchor)
// cost about as much at 8 and 16 as at 32, and 25 % less at 64 and 40 % less
// at 128, where a 1M-row table is 8 units and a 100K-row one a single unit
// (EXPERIMENTS.md "One fold grid").
const BlockRows = 32 * table.BatchSize

// Partition is a disjoint group of SMs with concurrent-kernel access to
// the whole device memory. It has one entry point, Execute, for any mix of
// scalar, cell-granted and GroupBy members over any snapshot. It is safe
// to call concurrently on different partitions (Fermi-style concurrent
// kernel execution); each call runs its own fork/join over the
// partition's SMs.
//
// Execute is a four-step pipeline:
//
//	step 1 — bind: after crossing the fault.GPUExec point, the request is
//	         validated and bound once per stripe of the snapshot
//	         (predicates resolved to columns and ordered by estimated
//	         selectivity), so no unit re-validates — and an invalid
//	         request fails the same way on empty and non-empty data;
//	step 2 — parallel table scan: the snapshot's logical row space is cut
//	         into BlockRows-long work units that do not know the partition,
//	         and one goroutine per SM drains units from a shared cursor
//	         through the vectorized batch kernel, a unit that spans stripes
//	         chaining one state through them in row order (steps 1 and 2
//	         are scan);
//	step 3 — reduction: the per-unit partials merge into one;
//	step 4 — final aggregation: the finalised aggregate returns to the
//	         caller (the CPU side), and Completed advances by one.
//
// An Execute answer therefore depends on the snapshot's rows and the member
// and on nothing else: not the other members, not the partition, not how
// its SMs interleave, not how ingest or compaction grouped the rows into
// stripes — every placement returns the same bits. Retries, the result
// cache, fusion, the cluster's shards and the chaos differentials all lean
// on this (TestPlacementFree pins it).
//
// A static system scans the device's resident one-stripe snapshot
// (Device.Resident); a live one pins an epoch snapshot at bind time, so a
// concurrently ingesting store never changes the row set mid-kernel. CPU
// preprocessing (query decomposition and text translation) happens before
// Execute is called.
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

// workUnit is one contiguous range of the snapshot's logical row space:
// what an SM scans between two visits to the shared cursor.
type workUnit struct{ lo, hi int }

// blocks cuts a snapshot's row space into BlockRows-long units, the last
// one short. A nil snapshot has none (scan reports it).
func blocks(snap *table.Snapshot) []workUnit {
	if snap == nil {
		return nil
	}
	units := make([]workUnit, 0, (snap.Rows()+BlockRows-1)/BlockRows)
	for lo := 0; lo < snap.Rows(); lo += BlockRows {
		units = append(units, workUnit{lo: lo, hi: min(lo+BlockRows, snap.Rows())})
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
// exhausted or its own run fails. It returns the first error in SM order;
// run(i, u) may write only state owned by unit i.
func (p *Partition) drain(units []workUnit, run func(i int, u workUnit) error) error {
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
				if err := run(i, units[i]); err != nil {
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

// scan is Execute's steps 1 and 2: cross the fault point, bind the
// members once per stripe and drain the snapshot's units through the one
// vectorized kernel. states[i] holds the member states unit i accumulated.
// A unit's stripe segments chain through one state, so a unit's partial
// covers exactly the rows inside it. Completed advances only when every
// unit ran.
func (p *Partition) scan(snap *table.Snapshot, members []table.Member) (plans []*table.Plan, states [][]table.State, err error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return nil, nil, err
	}
	if plans, err = bindStripes(snap, members); err != nil {
		return nil, nil, err
	}
	units := blocks(snap)
	states = make([][]table.State, len(units))
	err = p.drain(units, func(i int, u workUnit) error {
		// Each SM allocates the states it fills: the kernel writes them
		// once per batch, so neighbouring units' states stay off each
		// other's cache lines.
		st := make([]table.State, len(members))
		states[i] = st
		return snap.RowRange(u.lo, u.hi, func(stripe int, _ *table.FactTable, lo, hi int) error {
			return plans[stripe].RangeInto(lo, hi, st)
		})
	})
	if err != nil {
		return nil, nil, err
	}
	p.done()
	return plans, states, nil
}

func (p *Partition) done() { p.completed.Add(1) }
