// Package gpusim mirrors the simulated accelerator: all four Execute*
// entry points must cross fault.GPUExec, normally through the device's
// faultCheck wrapper.
package gpusim

import "fix/fault"

// Device simulates the accelerator.
type Device struct {
	faults *fault.Plan
}

func (d *Device) faultCheck(part int) error {
	return d.faults.Check(fault.GPUExec, part)
}

// Partition is one resident partition.
type Partition struct {
	dev *Device
	id  int
}

// Execute crosses gpu-exec through the device wrapper: fine.
func (p *Partition) Execute() error { return p.dev.faultCheck(p.id) }

// ExecuteGroup skips the wrapper.
func (p *Partition) ExecuteGroup() error { // want `gpusim\.Partition\.ExecuteGroup must cross the fault\.GPUExec injection point but never does`
	return nil
}

// launch is a shared kernel head that crosses for its callers.
func (p *Partition) launch() error { return p.dev.faultCheck(p.id) }

// ExecuteChunks crosses through the shared head: fine.
func (p *Partition) ExecuteChunks() error { return p.launch() }

// ExecuteFused drops its crossing.
func (p *Partition) ExecuteFused() error { // want `gpusim\.Partition\.ExecuteFused must cross the fault\.GPUExec injection point but never does`
	return nil
}
