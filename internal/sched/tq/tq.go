// Package tq owns the scheduler's queue clocks T_Q, the virtual time each
// queue of Fig. 10 is booked until. Every placement compares them, so a
// write that bypasses the scheduler's rules silently skews every later
// decision; the fields are unexported, and the methods below — booking a
// placement, the feedback correction, the quarantine drop — are the only
// writes the compiler lets through.
package tq

// Lane addresses one queue: a GPU partition by its index (0, 1, …), or
// the CPU processing or translation partition.
type Lane int

const (
	// CPU is the OLAP-cube processing partition's queue Q_CPU.
	CPU Lane = -1
	// Trans is the text-to-integer translation partition's queue Q_TRANS.
	Trans Lane = -2
)

// Clocks holds one T_Q per lane, all starting at 0.
type Clocks struct {
	cpu, trans float64
	gpu        []float64
}

// New returns the clocks of the CPU, translation and gpus GPU lanes.
func New(gpus int) Clocks { return Clocks{gpu: make([]float64, gpus)} }

func (c *Clocks) at(l Lane) *float64 {
	switch l {
	case CPU:
		return &c.cpu
	case Trans:
		return &c.trans
	}
	return &c.gpu[l]
}

// Get returns lane l's T_Q.
func (c *Clocks) Get(l Lane) float64 { return *c.at(l) }

// Start returns when a job submitted at now can start on lane l: at its
// T_Q, or at now when the lane has drained.
func (c *Clocks) Start(l Lane, now float64) float64 {
	tq := *c.at(l)
	if tq < now {
		return now
	}
	return tq
}

// Book records that lane l is busy until end: a committed placement or a
// maintenance job.
func (c *Clocks) Book(l Lane, end float64) { *c.at(l) = end }

// Shift applies the feedback correction: lane l's T_Q moves by delta
// (actual − estimated seconds) but never below now.
func (c *Clocks) Shift(l Lane, delta, now float64) {
	tq := c.at(l)
	*tq += delta
	if *tq < now {
		*tq = now
	}
}

// Drop pulls lane l's T_Q back to now when it is booked past it: a
// quarantined partition's queued jobs are being placed elsewhere.
func (c *Clocks) Drop(l Lane, now float64) {
	if tq := c.at(l); *tq > now {
		*tq = now
	}
}
