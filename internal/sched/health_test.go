package sched

import (
	"errors"
	"reflect"
	"testing"
)

// failGPU drives partition i to quarantine at virtual time now using the
// default threshold.
func failGPU(s *Scheduler, i int, now float64) {
	ref := QueueRef{Kind: QueueGPU, Index: i}
	for k := 0; k < s.health.threshold; k++ {
		s.ReportFailure(ref, now)
	}
}

func TestFailuresBelowThresholdStayHealthy(t *testing.T) {
	s := newPaper(t, paperCfg())
	ref := QueueRef{Kind: QueueGPU, Index: 2}
	s.ReportFailure(ref, 0)
	s.ReportFailure(ref, 0)
	if st, _ := s.Health(2); st != Healthy {
		t.Fatalf("state after 2/3 failures = %v, want healthy", st)
	}
	// A success resets the consecutive count: two more failures still
	// don't quarantine.
	s.ReportSuccess(ref)
	s.ReportFailure(ref, 0)
	s.ReportFailure(ref, 0)
	if st, _ := s.Health(2); st != Healthy {
		t.Fatalf("state after success-reset = %v, want healthy", st)
	}
	if s.Stats().Quarantines != 0 {
		t.Fatal("quarantine counted without threshold reached")
	}
}

func TestQuarantineClearsQueueClockAndExcludesPartition(t *testing.T) {
	s := newPaper(t, paperCfg())
	// Book heavy work on partition 0 (slowest-first placement sends the
	// first in-deadline job there).
	est := Estimates{GPUSeconds: flatGPU(0.1, 0.2, 0.3)}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue != (QueueRef{Kind: QueueGPU, Index: 0}) {
		t.Fatalf("setup placed on %v, want gpu[0]", d.Queue)
	}
	if s.QueueClock(d.Queue) == 0 {
		t.Fatal("queue clock not booked")
	}

	failGPU(s, 0, 0.05)
	if st, _ := s.Health(0); st != Quarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	// The booked estimate is dropped back to the failure time: its job is
	// being re-placed elsewhere, so the clock must not keep charging it.
	if got := s.QueueClock(QueueRef{Kind: QueueGPU, Index: 0}); got != 0.05 {
		t.Fatalf("quarantined queue clock = %v, want reset to 0.05", got)
	}

	// While quarantined, the P_BD scan never selects gpu[0] even though
	// slowest-first would otherwise pick it.
	for k := 0; k < 5; k++ {
		d, err := s.Submit(0.1, est)
		if err != nil {
			t.Fatal(err)
		}
		if d.Queue == (QueueRef{Kind: QueueGPU, Index: 0}) {
			t.Fatal("quarantined partition selected")
		}
	}
	st := s.Stats()
	if st.PartitionFailures != 3 || st.Quarantines != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReprobeClockTransitions(t *testing.T) {
	cfg := paperCfg()
	cfg.ReprobeSeconds = 2
	s := newPaper(t, cfg)
	est := Estimates{GPUSeconds: flatGPU(0.01, 0.01, 0.01)}
	failGPU(s, 0, 1.0) // quarantined until 3.0

	// Before the re-probe time the partition stays invisible.
	d, err := s.Submit(2.9, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Index == 0 {
		t.Fatal("selected before re-probe time")
	}
	if st, _ := s.Health(0); st != Quarantined {
		t.Fatalf("state at 2.9 = %v", st)
	}

	// At/after the re-probe time it enters probation and takes work again
	// (slowest-first reaches it first: its clock was reset on quarantine,
	// the other queues have accumulated bookings).
	d, err = s.Submit(3.0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue != (QueueRef{Kind: QueueGPU, Index: 0}) {
		t.Fatalf("probe job went to %v, want gpu[0]", d.Queue)
	}
	if st, _ := s.Health(0); st != Probation {
		t.Fatalf("state after probe placement = %v, want probation", st)
	}

	// Surviving the probe returns it to healthy.
	s.ReportSuccess(QueueRef{Kind: QueueGPU, Index: 0})
	if st, _ := s.Health(0); st != Healthy {
		t.Fatalf("state after probe success = %v, want healthy", st)
	}
	if s.Stats().Reprobes != 1 {
		t.Fatal("successful re-probe not counted")
	}
}

func TestProbationFailureRequarantinesImmediately(t *testing.T) {
	cfg := paperCfg()
	cfg.ReprobeSeconds = 1
	s := newPaper(t, cfg)
	failGPU(s, 3, 0) // quarantined until 1.0
	est := Estimates{GPUSeconds: flatGPU(0.01, 0.01, 0.01)}
	if _, err := s.Submit(1.5, est); err != nil { // transitions to probation
		t.Fatal(err)
	}
	if st, _ := s.Health(3); st != Probation {
		t.Fatalf("state = %v, want probation", st)
	}
	// One failure suffices in probation — no threshold grace.
	s.ReportFailure(QueueRef{Kind: QueueGPU, Index: 3}, 2.0)
	st, reprobe := s.Health(3)
	if st != Quarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	if reprobe != 3.0 {
		t.Fatalf("reprobeAt = %v, want 3.0", reprobe)
	}
	if s.Stats().Quarantines != 2 {
		t.Fatalf("quarantines = %d, want 2", s.Stats().Quarantines)
	}
}

func TestAllQuarantinedFallsBackToCPU(t *testing.T) {
	s := newPaper(t, paperCfg())
	for i := range s.cfg.GPUWidths {
		failGPU(s, i, 0)
	}
	est := Estimates{CPUOK: true, CPUSeconds: 0.5, GPUSeconds: flatGPU(0.001, 0.001, 0.001)}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Kind != QueueCPU {
		t.Fatalf("all-quarantined CPU-able query placed on %v", d.Queue)
	}
}

func TestAllQuarantinedGPUOnlyQueryErrors(t *testing.T) {
	s := newPaper(t, paperCfg())
	for i := range s.cfg.GPUWidths {
		failGPU(s, i, 0)
	}
	est := Estimates{GPUSeconds: flatGPU(0.001, 0.001, 0.001), NeedsTranslation: true, TransSeconds: 0.001}
	_, err := s.Submit(0, est)
	if !errors.Is(err, ErrAllQuarantined) {
		t.Fatalf("err = %v, want ErrAllQuarantined", err)
	}
	// Rejections do not count as submissions.
	if st := s.Stats(); st.Submitted != 0 || st.RejectedQueries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMinSlackFallbackEmptyPBD pins step 6: when no partition meets the
// deadline, the scheduler minimises |T_D - T_R| by picking the earliest
// completion over eligible partitions.
func TestMinSlackFallbackEmptyPBD(t *testing.T) {
	cfg := paperCfg()
	cfg.DeadlineSeconds = 0.01 // nothing can make this
	s := newPaper(t, cfg)
	est := Estimates{GPUSeconds: flatGPU(4, 2, 1)}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.MeetsDeadline {
		t.Fatal("impossible deadline reported met")
	}
	// gpu[4] and gpu[5] tie at 1s; the scan takes the first index found.
	if d.Queue.Kind != QueueGPU || est.GPUSeconds[d.Queue.Index] != 1 {
		t.Fatalf("fallback picked %v (%.1fs), want a 1s partition", d.Queue, est.GPUSeconds[d.Queue.Index])
	}
	if s.Stats().PredictedLate != 1 {
		t.Fatal("late placement not counted")
	}
}

// TestMinSlackFallbackSkipsQuarantined: with the fastest partitions
// quarantined, step 6 falls back to the best eligible one.
func TestMinSlackFallbackSkipsQuarantined(t *testing.T) {
	cfg := paperCfg()
	cfg.DeadlineSeconds = 0.01
	s := newPaper(t, cfg)
	failGPU(s, 4, 0)
	failGPU(s, 5, 0)
	est := Estimates{GPUSeconds: flatGPU(4, 2, 1)}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Kind != QueueGPU || est.GPUSeconds[d.Queue.Index] != 2 {
		t.Fatalf("fallback picked %v, want a 2s partition with 1s partitions quarantined", d.Queue)
	}
}

func TestResubmitUsesExplicitDeadline(t *testing.T) {
	s := newPaper(t, paperCfg())
	est := Estimates{GPUSeconds: flatGPU(0.3, 0.3, 0.3)}
	d, err := s.Resubmit(1.0, 1.25, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Deadline != 1.25 {
		t.Fatalf("deadline = %v, want the explicit 1.25, not now+T_C", d.Deadline)
	}
	// 0.3s service on an empty queue at t=1.0 ends at 1.3 > 1.25.
	if d.MeetsDeadline {
		t.Fatal("placement past the remaining slack reported as in time")
	}
	st := s.Stats()
	if st.Resubmitted != 1 || st.Submitted != 0 {
		t.Fatalf("stats = %+v: Resubmit must count separately from Submit", st)
	}
}

// TestPeekDoesNotMutateHealth: Peek decides what Submit would and books
// none of it — no probation promotion, no queue clock, no round-robin
// cursor step and no counter.
func TestPeekDoesNotMutateHealth(t *testing.T) {
	cfg := paperCfg()
	cfg.ReprobeSeconds = 1
	cfg.Placement = PlaceRoundRobin
	s := newPaper(t, cfg)
	failGPU(s, 0, 0)
	if _, err := s.Submit(0.5, Estimates{GPUSeconds: flatGPU(0.2, 0.1, 0.05)}); err != nil {
		t.Fatal(err)
	}
	refs := []QueueRef{{Kind: QueueCPU}, {Kind: QueueCPU, Index: -1}}
	for i := range cfg.GPUWidths {
		refs = append(refs, QueueRef{Kind: QueueGPU, Index: i})
	}
	clocks := func() []float64 {
		var out []float64
		for _, r := range refs {
			out = append(out, s.QueueClock(r))
		}
		return out
	}
	beforeClocks, beforeStats, beforeRR := clocks(), s.Stats(), s.rrNext
	// Peek past the re-probe time with a translated, link-priced query
	// that places on a GPU partition.
	est := Estimates{GPUSeconds: flatGPU(0.01, 0.01, 0.01), NeedsTranslation: true,
		TransSeconds: 0.01, LinkSeconds: 0.01}
	peeked, err := s.Peek(2.0, est)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Health(0); st != Quarantined {
		t.Fatalf("Peek mutated health: state = %v", st)
	}
	if got := clocks(); !reflect.DeepEqual(got, beforeClocks) {
		t.Fatalf("Peek moved queue clocks: %v, want %v", got, beforeClocks)
	}
	if s.rrNext != beforeRR {
		t.Fatalf("Peek advanced the round-robin cursor: %d, want %d", s.rrNext, beforeRR)
	}
	if got := s.Stats(); !reflect.DeepEqual(got, beforeStats) {
		t.Fatalf("Peek moved counters: %+v, want %+v", got, beforeStats)
	}
	if est.GPUSeconds[0] != 0.01 {
		t.Fatal("Peek scaled the caller's estimates")
	}
	// Submit then decides exactly what Peek said it would.
	if d, err := s.Submit(2.0, est); err != nil || d != peeked {
		t.Fatalf("Submit = %+v, %v; Peek said %+v", d, err, peeked)
	}
}

func TestHealthStatesSnapshot(t *testing.T) {
	s := newPaper(t, paperCfg())
	failGPU(s, 1, 0)
	hs := s.HealthStates()
	if len(hs) != 6 {
		t.Fatalf("len = %d", len(hs))
	}
	for i, h := range hs {
		want := Healthy
		if i == 1 {
			want = Quarantined
		}
		if h != want {
			t.Fatalf("partition %d state = %v, want %v", i, h, want)
		}
	}
	if Healthy.String() != "healthy" || Probation.String() != "probation" || Quarantined.String() != "quarantined" {
		t.Fatal("state names")
	}
}
