package sched

import (
	"fmt"

	"hybridolap/internal/sched/tq"
)

// HealthState is one execution unit's standing with a health tracker. The
// paper's Fig. 10 assumes every partition always completes its work; the
// health machine is what lets the reproduction survive the partitions
// that don't: repeated failures quarantine a unit out of the placement
// scan until a clock-based re-probe lets one job test it again. The same
// machine tracks GPU partitions inside a Scheduler and whole nodes inside
// the cluster coordinator.
type HealthState int

const (
	// Healthy units take work normally.
	Healthy HealthState = iota
	// Probation units take work, but a single failure re-quarantines
	// them immediately (no threshold grace).
	Probation
	// Quarantined units are excluded from every placement scan until
	// the virtual clock reaches their re-probe time.
	Quarantined
	// Evicted units are permanently out of service: quarantine escalated
	// past the eviction threshold (SetEviction), so the tracker declares
	// the unit lost rather than re-probing it forever. No re-probe timer
	// applies; only an explicit Revive readmits the unit. The cluster
	// coordinator treats an evicted node as dead and re-replicates its
	// shards elsewhere.
	Evicted
)

// String names the state.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Probation:
		return "probation"
	case Quarantined:
		return "quarantined"
	case Evicted:
		return "evicted"
	default:
		return fmt.Sprintf("HealthState(%d)", int(h))
	}
}

// partitionHealth tracks one execution unit.
type partitionHealth struct {
	state     HealthState
	fails     int     // consecutive failures while Healthy
	reprobeAt float64 // virtual time a Quarantined unit may probe again
	// quarantinedAt records recent quarantine event times for the
	// eviction escalation; pruned to the eviction window on each event.
	quarantinedAt []float64
}

// HealthTracker is the failure/quarantine state machine over n execution
// units, factored out of the Scheduler so the cluster coordinator can run
// the identical Healthy → Probation → Quarantined lifecycle over nodes.
// It is not concurrency-safe; callers serialise access exactly as they
// serialise the Scheduler that owns it.
type HealthTracker struct {
	units     []partitionHealth
	threshold int
	reprobe   float64
	// evictThreshold quarantine events within evictWindow (virtual
	// seconds) escalate a unit to Evicted; 0 disables escalation, so a
	// unit can only ever cycle Healthy → Quarantined → Probation.
	evictThreshold int
	evictWindow    float64
}

// NewHealthTracker returns a tracker over n units. threshold is the
// consecutive-failure count that quarantines a Healthy unit (default 3);
// reprobeSeconds the quarantine sit-out on the caller's virtual clock
// (default 5).
func NewHealthTracker(n, threshold int, reprobeSeconds float64) *HealthTracker {
	if threshold <= 0 {
		threshold = 3
	}
	if reprobeSeconds <= 0 {
		reprobeSeconds = 5
	}
	return &HealthTracker{
		units:     make([]partitionHealth, n),
		threshold: threshold,
		reprobe:   reprobeSeconds,
	}
}

// Len returns the number of tracked units.
func (t *HealthTracker) Len() int { return len(t.units) }

// SetEviction enables quarantine escalation: a unit quarantined
// threshold times within windowSeconds on the caller's virtual clock is
// Evicted — declared permanently lost instead of re-probed. threshold
// <= 0 disables escalation (the default); windowSeconds <= 0 selects a
// 60-second window. The transition is evaluated at quarantine time, so
// enabling eviction on a tracker with history only counts future
// quarantine events.
func (t *HealthTracker) SetEviction(threshold int, windowSeconds float64) {
	if windowSeconds <= 0 {
		windowSeconds = 60
	}
	t.evictThreshold = threshold
	t.evictWindow = windowSeconds
}

// Failure records a failed job on unit i at virtual time now and reports
// whether the unit transitioned INTO Quarantined (a new quarantine event,
// as opposed to a refreshed sit-out on an already-quarantined unit). A
// Healthy unit quarantines after threshold consecutive failures; a
// Probation unit re-quarantines on its first.
func (t *HealthTracker) Failure(i int, now float64) bool {
	if i < 0 || i >= len(t.units) {
		return false
	}
	h := &t.units[i]
	switch h.state {
	case Probation:
		// Failed its probe: straight back out.
		t.quarantine(i, now)
		return true
	case Evicted:
		// A stale in-flight job against a unit already declared lost:
		// nothing left to escalate.
		return false
	case Quarantined:
		// A stale in-flight job placed before the quarantine: refresh the
		// sit-out window, but this is not a new quarantine event.
		if at := now + t.reprobe; at > h.reprobeAt {
			h.reprobeAt = at
		}
		return false
	default:
		h.fails++
		if h.fails >= t.threshold {
			t.quarantine(i, now)
			return true
		}
		return false
	}
}

// quarantine moves a unit out of service until now+reprobe, escalating
// to Evicted when the unit has been quarantined evictThreshold times
// within the eviction window (SetEviction).
func (t *HealthTracker) quarantine(i int, now float64) {
	h := &t.units[i]
	h.state = Quarantined
	h.fails = 0
	h.reprobeAt = now + t.reprobe
	if t.evictThreshold <= 0 {
		return
	}
	// Prune events that fell out of the window, then record this one.
	keep := h.quarantinedAt[:0]
	for _, at := range h.quarantinedAt {
		if at > now-t.evictWindow {
			keep = append(keep, at)
		}
	}
	h.quarantinedAt = append(keep, now)
	if len(h.quarantinedAt) >= t.evictThreshold {
		h.state = Evicted
	}
}

// Success records a completed job on unit i: consecutive-failure counts
// reset, and the return value reports whether a Probation unit survived
// its probe and returned to Healthy.
func (t *HealthTracker) Success(i int) bool {
	if i < 0 || i >= len(t.units) {
		return false
	}
	h := &t.units[i]
	if h.state == Evicted {
		// A stale in-flight success does not resurrect a unit declared
		// lost — only an explicit Revive does.
		return false
	}
	h.fails = 0
	if h.state == Probation {
		h.state = Healthy
		return true
	}
	return false
}

// Revive readmits unit i as a fresh Healthy unit, clearing its failure
// and quarantine history. This is the only way back from Evicted — the
// caller is asserting the unit was replaced or repaired, not merely that
// time passed.
func (t *HealthTracker) Revive(i int) {
	if i < 0 || i >= len(t.units) {
		return
	}
	t.units[i] = partitionHealth{}
}

// Eligible reports whether unit i may be offered work at virtual time
// now. Reaching the re-probe time transitions Quarantined → Probation as
// a side effect, so the next placement scan may send exactly the probe
// traffic the state machine wants.
func (t *HealthTracker) Eligible(i int, now float64) bool {
	ok := t.admits(i, now)
	if ok && t.units[i].state == Quarantined {
		t.units[i].state = Probation
	}
	return ok
}

// admits is Eligible without the promotion: whether a placement scan at
// now may offer unit i work.
func (t *HealthTracker) admits(i int, now float64) bool {
	switch h := &t.units[i]; h.state {
	case Evicted:
		return false
	case Quarantined:
		return now >= h.reprobeAt
	}
	return true
}

// promote applies Eligible's promotion to every unit: each Quarantined
// unit whose re-probe is due at now moves to Probation.
func (t *HealthTracker) promote(now float64) {
	for i := range t.units {
		t.Eligible(i, now)
	}
}

// State returns unit i's current state and, when quarantined, the
// virtual time its re-probe opens.
func (t *HealthTracker) State(i int) (HealthState, float64) {
	if i < 0 || i >= len(t.units) {
		return Healthy, 0
	}
	return t.units[i].state, t.units[i].reprobeAt
}

// States snapshots every unit's state.
func (t *HealthTracker) States() []HealthState {
	out := make([]HealthState, len(t.units))
	for i := range t.units {
		out[i] = t.units[i].state
	}
	return out
}

// ReportFailure records a failed job on a queue at virtual time now. CPU
// and translation failures are not health-tracked (there is exactly one
// of each; quarantining them is shutting the system down). Quarantining
// drops the partition's booked queue time back to now: its queued jobs
// are being re-placed through the retry path, so leaving their estimates
// on the clock would charge phantom work to a dead partition and poison
// every later comparison against it.
func (s *Scheduler) ReportFailure(ref QueueRef, now float64) {
	if ref.Kind != QueueGPU || ref.Index < 0 || ref.Index >= s.health.Len() {
		return
	}
	s.stats.PartitionFailures++
	if s.health.Failure(ref.Index, now) {
		s.clocks.Drop(tq.Lane(ref.Index), now)
		s.stats.Quarantines++
	}
}

// ReportSuccess records a completed job: consecutive-failure counts reset
// and a Probation partition that survived its probe returns to Healthy.
func (s *Scheduler) ReportSuccess(ref QueueRef) {
	if ref.Kind != QueueGPU || ref.Index < 0 || ref.Index >= s.health.Len() {
		return
	}
	if s.health.Success(ref.Index) {
		s.stats.Reprobes++
	}
}

// Health returns partition i's current state and, when quarantined, the
// virtual time its re-probe opens.
func (s *Scheduler) Health(i int) (HealthState, float64) {
	return s.health.State(i)
}

// HealthStates snapshots every GPU partition's state.
func (s *Scheduler) HealthStates() []HealthState {
	return s.health.States()
}

// ErrAllQuarantined is returned when every partition that could answer
// the query is quarantined (and the CPU path cannot take it).
var ErrAllQuarantined = fmt.Errorf("sched: every eligible GPU partition is quarantined")
