package gpusim

import (
	"errors"
	"fmt"
	"testing"

	"hybridolap/internal/fault"
	"hybridolap/internal/table"
)

// TestEntryPointContract pins what the kernel entry point owes its
// caller, for every member shape it takes — a scalar member ("Execute"), a
// GroupBy member ("ExecuteGroup") and two members ("ExecuteFused") — on
// every partition width: an injected fault.GPUExec aborts the launch with
// the injected error and no accounting, and a fault-free launch advances
// Completed by exactly one whatever the unit count (zero, one, many).
func TestEntryPointContract(t *testing.T) {
	const rows = 2*BlockRows + 100
	scalar := table.ScanRequest{Op: table.AggSum, Measure: 0,
		Predicates: []table.RangePredicate{{Dim: 0, Level: 0, From: 0, To: 3}}}
	grouped := table.Member{ScanRequest: scalar, GroupBy: []table.GroupCol{{Dim: 1, Level: 0}}}

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

	// work is one launch's row source.
	type work struct {
		name string
		snap *table.Snapshot
	}
	sizes := []work{
		{"zero units", empty},
		{"one unit", single},
		{"many units", d.Resident()},
	}
	entries := []struct {
		name string
		run  func(p *Partition, w work) (answers int, err error)
	}{
		{"Execute", func(p *Partition, w work) (int, error) {
			_, err := execScalar(p, w.snap, scalar)
			return 0, err
		}},
		{"ExecuteGroup", func(p *Partition, w work) (int, error) {
			got, err := execGroups(p, w.snap, grouped)
			return len(got), err
		}},
		{"ExecuteFused", func(p *Partition, w work) (int, error) {
			got, err := p.Execute(w.snap, cellMembers([]table.ScanRequest{scalar, scalar}, nil))
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
