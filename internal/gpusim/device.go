// Package gpusim simulates the GPU accelerator of the hybrid OLAP system.
//
// The paper runs on an NVIDIA Tesla C2070 (Fermi, 14 SMs, concurrent
// kernel execution). Go has no CUDA, so this package substitutes a
// functional simulator with the two properties the rest of the system
// depends on:
//
//  1. Functional behaviour — a partition really executes the paper's
//     GPU pipeline (parallel table scan over column stripes, parallel
//     reduction, final aggregation) against the in-memory columnar fact
//     table, with one goroutine per simulated SM. Results are bit-exact
//     with a sequential scan.
//
//  2. No timing model — what a kernel is expected to cost, P_GPU(C/C_TOT,
//     n_SM) of eqs. 14–15, is the estimator's (perfmodel.Estimator.GPU),
//     the one model every scheduler prices the GPU with.
//
// The device supports the paper's static partitioning: disjoint groups of
// SMs, each with its own queue, all sharing the full global memory and
// every loaded table ("any partition can answer any query", Sec. III-G).
package gpusim

import (
	"fmt"

	"hybridolap/internal/fault"
	"hybridolap/internal/table"
)

// DeviceSpec describes a simulated accelerator.
type DeviceSpec struct {
	Name           string
	SMs            int
	GlobalMemBytes int64
}

// TeslaC2070 returns the paper's accelerator: 14 active SMs and 6 GB
// GDDR5.
func TeslaC2070() DeviceSpec {
	return DeviceSpec{
		Name:           "Tesla C2070 (simulated)",
		SMs:            14,
		GlobalMemBytes: 6 << 30,
	}
}

// PaperLayout is the partition layout the scheduler uses: "2 partitions
// have 1 SM each, 2 partitions have 2 SMs each, and last two partitions
// have 4 SMs each" (Sec. III-G), totalling 14 SMs.
func PaperLayout() []int { return []int{1, 1, 2, 2, 4, 4} }

// Device is a simulated GPU with a loaded fact table and a static
// partition layout.
type Device struct {
	spec       DeviceSpec
	resident   *table.Snapshot // the loaded table as a one-stripe epoch-0 snapshot
	partitions []*Partition
	faults     *fault.Plan
}

// NewDevice validates the spec and returns an unpartitioned device.
func NewDevice(spec DeviceSpec) (*Device, error) {
	if spec.SMs <= 0 {
		return nil, fmt.Errorf("gpusim: device needs at least one SM")
	}
	if spec.GlobalMemBytes <= 0 {
		return nil, fmt.Errorf("gpusim: device needs positive global memory")
	}
	return &Device{spec: spec}, nil
}

// Spec returns the device description.
func (d *Device) Spec() DeviceSpec { return d.spec }

// LoadTable places a fact table in global memory. It fails when the table
// does not fit — the constraint that forces dictionary encoding of text
// columns in the first place.
func (d *Device) LoadTable(ft *table.FactTable) error {
	if ft.SizeBytes() > d.spec.GlobalMemBytes {
		return fmt.Errorf("gpusim: table needs %d bytes, device has %d",
			ft.SizeBytes(), d.spec.GlobalMemBytes)
	}
	reg, err := table.NewRegistry(*ft.Schema(), ft, nil)
	if err != nil {
		return err
	}
	d.resident = reg.Current()
	return nil
}

// Resident returns the loaded table as a one-stripe epoch-0 snapshot (nil
// when none) — the row source every kernel of a static system, and every
// cluster shard, scans.
func (d *Device) Resident() *table.Snapshot { return d.resident }

// Table returns the loaded fact table (nil when none).
func (d *Device) Table() *table.FactTable {
	if d.resident == nil {
		return nil
	}
	return d.resident.Stripes()[0].Table()
}

// Partition installs a static layout: one partition per entry, holding
// that many SMs. The layout must fit the device.
func (d *Device) Partition(layout []int) error {
	if len(layout) == 0 {
		return fmt.Errorf("gpusim: empty partition layout")
	}
	total := 0
	for i, sms := range layout {
		if sms <= 0 {
			return fmt.Errorf("gpusim: partition %d has %d SMs", i, sms)
		}
		total += sms
	}
	if total > d.spec.SMs {
		return fmt.Errorf("gpusim: layout uses %d SMs, device has %d", total, d.spec.SMs)
	}
	d.partitions = make([]*Partition, len(layout))
	for i, sms := range layout {
		d.partitions[i] = &Partition{id: i, sms: sms, dev: d}
	}
	return nil
}

// Partitions returns the installed partitions.
func (d *Device) Partitions() []*Partition { return d.partitions }

// SetFaults installs the chaos plan every partition consults at kernel
// launch (fault.GPUExec); nil runs fault-free. Install during wiring,
// before queries are served — the field is not synchronised.
func (d *Device) SetFaults(p *fault.Plan) { d.faults = p }

// faultCheck crosses the GPUExec fault point for one partition. A fired
// fault models a stalled or aborted kernel: the injected error surfaces
// to the engine's retry path exactly like a real execution failure.
func (d *Device) faultCheck(partition int) error {
	return d.faults.Check(fault.GPUExec, partition)
}
