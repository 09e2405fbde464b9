// Package gpusim mirrors the simulated accelerator: its entry point,
// Execute, must cross fault.GPUExec, normally through the device's
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

// launch is a shared kernel head that crosses for its callers.
func (p *Partition) launch() error { return p.dev.faultCheck(p.id) }

// Execute crosses through the shared head: fine.
func (p *Partition) Execute() error { return p.launch() }
