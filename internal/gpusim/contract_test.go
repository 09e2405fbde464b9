package gpusim

import (
	"errors"
	"fmt"
	"testing"

	"hybridolap/internal/fault"
	"hybridolap/internal/table"
)

// TestEntryPointContract pins what every one of the four kernel entry
// points owes its caller (ExecuteChunks once with a scalar and once with a
// keyed member), on every partition width: an injected fault.GPUExec
// aborts the launch with the injected error and no accounting; a
// fault-free launch advances Completed by exactly one whatever the unit
// count (zero, one, many); and a failing unit surfaces as an error — never
// a panic, a partial answer or a completed kernel.
func TestEntryPointContract(t *testing.T) {
	const rows = 5000
	scalar := table.ScanRequest{Op: table.AggSum, Measure: 0,
		Predicates: []table.RangePredicate{{Dim: 0, Level: 0, From: 0, To: 3}}}
	grouped := table.GroupScanRequest{ScanRequest: scalar, GroupBy: []table.GroupCol{{Dim: 1, Level: 0}}}

	d, err := NewDevice(TeslaC2070())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadTable(testTable(t, rows)); err != nil {
		t.Fatal(err)
	}
	if err := d.Partition([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	empty, _ := testSnapshot(t, 0, []int{0})
	single, _ := testSnapshot(t, 1, []int{1})

	// work is one launch's row source: a snapshot for the three snapshot
	// entry points, a chunk grid over the resident table for the other two.
	type work struct {
		name   string
		snap   *table.Snapshot
		chunks []ChunkRange
	}
	sizes := []work{
		{"zero units", empty, nil},
		{"one unit", single, []ChunkRange{{Lo: 0, Hi: rows}}},
		{"many units", d.Resident(), fixedGrid(rows, 16)},
	}
	entries := []struct {
		name   string
		chunks bool // takes the chunk grid rather than the snapshot
		run    func(p *Partition, w work) (answers int, err error)
	}{
		{"Execute", false, func(p *Partition, w work) (int, error) {
			_, err := p.Execute(w.snap, scalar)
			return 0, err
		}},
		{"ExecuteGroup", false, func(p *Partition, w work) (int, error) {
			got, err := p.ExecuteGroup(w.snap, grouped)
			return len(got), err
		}},
		{"ExecuteFused", false, func(p *Partition, w work) (int, error) {
			got, err := p.ExecuteFused(w.snap, []table.ScanRequest{scalar, scalar}, nil)
			return len(got), err
		}},
		{"ExecuteChunks", true, func(p *Partition, w work) (int, error) {
			got, err := p.ExecuteChunks(table.Member{ScanRequest: scalar}, w.chunks)
			return len(got), err
		}},
		{"ExecuteGroupChunks", true, func(p *Partition, w work) (int, error) {
			m, err := table.GroupMember(grouped)
			if err != nil {
				return 0, err
			}
			got, err := p.ExecuteChunks(m, w.chunks)
			return len(got), err
		}},
	}

	for _, e := range entries {
		for _, p := range d.Partitions() {
			t.Run(fmt.Sprintf("%s/%dSM", e.name, p.SMs()), func(t *testing.T) {
				d.SetFaults(nil)
				for _, w := range sizes {
					before := p.Completed()
					if _, err := e.run(p, w); err != nil {
						t.Fatalf("%s: %v", w.name, err)
					}
					if got := p.Completed() - before; got != 1 {
						t.Fatalf("%s: Completed advanced by %d, want 1", w.name, got)
					}
				}

				if e.chunks {
					bad := work{chunks: []ChunkRange{{Lo: 0, Hi: rows / 2}, {Lo: rows / 2, Hi: rows + 1}}}
					before := p.Completed()
					n, err := e.run(p, bad)
					if err == nil || n != 0 {
						t.Fatalf("out-of-range chunk: %d answers, err %v", n, err)
					}
					if p.Completed() != before {
						t.Fatal("out-of-range chunk: failed kernel counted as completed")
					}
				}

				d.SetFaults(fault.NewPlan(fault.PlanConfig{Seed: 1, Points: map[fault.Point]fault.PointConfig{
					fault.GPUExec: {Rate: 1},
				}}))
				for _, w := range sizes {
					before := p.Completed()
					n, err := e.run(p, w)
					if !errors.Is(err, fault.ErrInjected) || n != 0 {
						t.Fatalf("%s under fault: %d answers, err %v", w.name, n, err)
					}
					if p.Completed() != before {
						t.Fatalf("%s under fault: aborted kernel counted as completed", w.name)
					}
				}
			})
		}
	}
}
