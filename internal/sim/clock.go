// Package sim provides a deterministic discrete-event simulation substrate:
// a virtual clock, an event queue ordered by (time, sequence), and simple
// server/queue primitives used by the hybrid OLAP system model.
//
// The paper (Sec. IV) evaluates its scheduler on "a system model ... set up
// based on characteristics extracted from performance measurements". This
// package is that model's engine: partitions become servers whose service
// times come from internal/perfmodel, and throughput in queries per second
// falls out of the virtual timeline.
package sim

import (
	"fmt"
	"time"
)

// Time is a point on the virtual timeline, measured as a Duration since the
// simulation epoch. Using time.Duration keeps arithmetic overflow-safe for
// any realistic experiment length (≈292 years of nanoseconds).
type Time = time.Duration

// Clock tracks virtual time. The zero value is a clock at the epoch.
//
// Clock is intentionally not safe for concurrent use: the event loop is
// single-threaded by design so simulations are perfectly reproducible.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward to t. It panics if t is in the past,
// because a discrete-event simulation must never move backwards; such a
// call always indicates a scheduling bug, not a recoverable condition.
func (c *Clock) Advance(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved backwards: now=%v target=%v", c.now, t))
	}
	c.now = t
}

// Seconds converts a virtual time (or duration) to float seconds. It is the
// unit used by all performance-model functions in the paper.
func Seconds(t Time) float64 { return t.Seconds() }

// FromSeconds converts float seconds to a virtual duration. Negative inputs
// are clamped to zero: the model functions can produce tiny negative values
// for degenerate inputs (e.g. zero-size sub-cubes with a negative intercept)
// and service times are non-negative by definition.
func FromSeconds(s float64) Time {
	if s <= 0 {
		return 0
	}
	return Time(s * float64(time.Second))
}
