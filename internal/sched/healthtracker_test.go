package sched

import "testing"

// TestHealthTrackerUnit exercises the tracker directly — the cluster
// coordinator drives it over nodes the same way the scheduler drives it
// over GPU partitions.
func TestHealthTrackerUnit(t *testing.T) {
	h := NewHealthTracker(2, 2, 10)
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	if !h.Eligible(0, 0) || !h.Eligible(1, 0) {
		t.Fatal("fresh units ineligible")
	}
	if h.Failure(0, 1) {
		t.Fatal("first failure quarantined at threshold 2")
	}
	if !h.Failure(0, 2) {
		t.Fatal("second failure did not quarantine")
	}
	if st, _ := h.State(0); st != Quarantined {
		t.Fatalf("state = %v", st)
	}
	if h.Eligible(0, 3) {
		t.Fatal("quarantined unit eligible before reprobe")
	}
	// Reprobe window elapses: unit moves to probation and one success
	// restores it.
	if !h.Eligible(0, 13) {
		t.Fatal("unit not probed after reprobe window")
	}
	if st, _ := h.State(0); st != Probation {
		t.Fatalf("state = %v", st)
	}
	if !h.Success(0) {
		t.Fatal("probation success did not restore")
	}
	if st, _ := h.State(0); st != Healthy {
		t.Fatalf("state = %v", st)
	}
	// A failure during quarantine refreshes the reprobe clock instead of
	// re-quarantining.
	h.Failure(1, 0)
	h.Failure(1, 0)
	if h.Failure(1, 5) {
		t.Fatal("failure while quarantined reported a fresh quarantine")
	}
	if h.Eligible(1, 13) {
		t.Fatal("reprobe clock not refreshed by in-quarantine failure")
	}

	states := h.States()
	if len(states) != 2 || states[0] != Healthy || states[1] != Quarantined {
		t.Fatalf("States = %v", states)
	}
}

// TestHealthTrackerReprobeBoundary pins the reprobe comparison at the
// exact boundary instant: Eligible at now == reprobeAt must open the
// probe (the transition is >=, not >), and one instant earlier must not.
func TestHealthTrackerReprobeBoundary(t *testing.T) {
	h := NewHealthTracker(1, 1, 10)
	if !h.Failure(0, 5) {
		t.Fatal("threshold-1 failure did not quarantine")
	}
	if _, at := h.State(0); at != 15 {
		t.Fatalf("reprobeAt = %v, want 15", at)
	}
	if h.Eligible(0, 14.999) {
		t.Fatal("eligible before the reprobe boundary")
	}
	if !h.Eligible(0, 15) {
		t.Fatal("not eligible exactly at the reprobe boundary")
	}
	if st, _ := h.State(0); st != Probation {
		t.Fatalf("state = %v, want probation", st)
	}
}

// TestHealthTrackerEvictionWindow exercises quarantine escalation: only
// quarantine events INSIDE the sliding window count toward eviction, so
// a unit that flaps slowly enough is never evicted.
func TestHealthTrackerEvictionWindow(t *testing.T) {
	h := NewHealthTracker(1, 1, 1)
	h.SetEviction(2, 10)

	// Two quarantines 20 s apart: the first has left the window by the
	// time the second lands, so no eviction.
	if !h.Failure(0, 0) {
		t.Fatal("failure did not quarantine")
	}
	if !h.Eligible(0, 2) { // probe opens
		t.Fatal("not probed")
	}
	if !h.Failure(0, 20) { // probation failure -> second quarantine event
		t.Fatal("probation failure did not quarantine")
	}
	if st, _ := h.State(0); st != Quarantined {
		t.Fatalf("slow flapping escalated: state = %v", st)
	}

	// A third quarantine 5 s later joins the second inside the window:
	// two events within 10 s, evicted.
	if !h.Eligible(0, 22) {
		t.Fatal("not re-probed")
	}
	if !h.Failure(0, 25) {
		t.Fatal("probation failure did not quarantine")
	}
	if st, _ := h.State(0); st != Evicted {
		t.Fatalf("state = %v, want evicted", st)
	}
}

// TestHealthTrackerEvictionThenRevive pins Evicted as absorbing for
// everything except Revive: no success, failure or clock progress
// readmits the unit.
func TestHealthTrackerEvictionThenRevive(t *testing.T) {
	h := NewHealthTracker(2, 1, 1)
	h.SetEviction(1, 60) // first quarantine evicts
	if !h.Failure(0, 0) {
		t.Fatal("failure did not quarantine")
	}
	if st, _ := h.State(0); st != Evicted {
		t.Fatalf("state = %v, want evicted", st)
	}
	if h.Success(0) {
		t.Fatal("stale success resurrected an evicted unit")
	}
	if h.Failure(0, 1) {
		t.Fatal("failure on an evicted unit reported a fresh quarantine")
	}
	if h.Eligible(0, 1e9) {
		t.Fatal("evicted unit became eligible by clock progress alone")
	}
	h.Revive(0)
	if st, _ := h.State(0); st != Healthy {
		t.Fatalf("state after revive = %v", st)
	}
	if !h.Eligible(0, 0) {
		t.Fatal("revived unit not eligible")
	}
	// Revive cleared the quarantine history: the next quarantine counts
	// from zero events, and with threshold 1 it evicts again.
	if !h.Failure(0, 2) {
		t.Fatal("failure did not quarantine after revive")
	}
	if st, _ := h.State(0); st != Evicted {
		t.Fatalf("state = %v, want evicted again", st)
	}
	// Out-of-range revive is a no-op, not a panic.
	h.Revive(-1)
	h.Revive(99)
}
