package sched

import (
	"math"
	"testing"
)

func fusionTestScheduler(t *testing.T) *Scheduler {
	t.Helper()
	s, err := New(Config{GPUWidths: []int{1, 1, 2, 2, 4, 4}, DeadlineSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSubmitFusedBooksMaxPlusEpsilon(t *testing.T) {
	s := fusionTestScheduler(t)
	members := []Estimates{
		{GPUSeconds: []float64{0.40, 0.40, 0.20, 0.20, 0.10, 0.10}},
		{GPUSeconds: []float64{0.80, 0.80, 0.40, 0.40, 0.20, 0.20}},
		{GPUSeconds: []float64{0.60, 0.60, 0.30, 0.30, 0.15, 0.15}},
	}
	d, err := s.SubmitFused(0, 1, members)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Kind != QueueGPU {
		t.Fatalf("fused job placed on %v, want GPU", d.Queue)
	}
	i := d.Queue.Index
	wantSvc := 0.0
	for _, m := range members {
		if m.GPUSeconds[i] > wantSvc {
			wantSvc = m.GPUSeconds[i]
		}
	}
	wantSvc += float64(len(members)) * DefaultFusionEpsilonSeconds
	if got := d.End - d.Start; math.Abs(got-wantSvc) > 1e-12 {
		t.Fatalf("booked service %v, want max+K·ε = %v", got, wantSvc)
	}

	st := s.Stats()
	if st.FusedJobs != 1 || st.FusedMembers != 3 || st.Submitted != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.FusionFanIn[FanInBucket(3)] != 1 {
		t.Fatalf("fan-in histogram: %v", st.FusionFanIn)
	}
}

// TestSubmitFusedBeatsSequential pins the throughput mechanism: K fused
// members finish earlier than K sequential submissions of the same
// estimates, because the queue advances by max+K·ε instead of sum.
func TestSubmitFusedBeatsSequential(t *testing.T) {
	fusedS := fusionTestScheduler(t)
	seqS := fusionTestScheduler(t)
	est := Estimates{GPUSeconds: []float64{0.40, 0.40, 0.20, 0.20, 0.10, 0.10}}
	members := []Estimates{est, est, est, est}

	fd, err := fusedS.SubmitFused(0, 1, members)
	if err != nil {
		t.Fatal(err)
	}
	var lastEnd float64
	for range members {
		d, err := seqS.Submit(0, est)
		if err != nil {
			t.Fatal(err)
		}
		if d.End > lastEnd {
			lastEnd = d.End
		}
	}
	if fd.End >= lastEnd {
		t.Fatalf("fused End %v not earlier than sequential last End %v", fd.End, lastEnd)
	}
}

// TestSubmitFusedDeadline pins what a fused booking is held to: the
// deadline its caller passes (the earliest member's arrival + T_C), not a
// fresh now + T_C at fire time — so time members spent in the fusion
// window counts against T_C.
func TestSubmitFusedDeadline(t *testing.T) {
	est := Estimates{GPUSeconds: []float64{0.40, 0.40, 0.20, 0.20, 0.10, 0.10}}
	cases := []struct {
		name          string
		now, deadline float64
		meets         bool
	}{
		{"fired at arrival", 0, 1, true},
		{"window time charged, slowest partition still fits", 0.5, 1, true},
		{"only the fast partitions fit", 0.85, 1, true},
		{"window outlasted the slack", 0.95, 1, false},
		{"fired after the deadline", 1.5, 1, false},
		{"late arrival, own deadline", 1.5, 2.5, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := fusionTestScheduler(t)
			d, err := s.SubmitFused(c.now, c.deadline, []Estimates{est, est})
			if err != nil {
				t.Fatal(err)
			}
			if d.Deadline != c.deadline {
				t.Fatalf("booked deadline %v, want the members' %v", d.Deadline, c.deadline)
			}
			if d.Start < c.now {
				t.Fatalf("job starts at %v, before it was fired at %v", d.Start, c.now)
			}
			if d.MeetsDeadline != c.meets || d.MeetsDeadline != (d.End <= c.deadline) {
				t.Fatalf("End %v vs deadline %v: MeetsDeadline %v, want %v", d.End, c.deadline, d.MeetsDeadline, c.meets)
			}
			if late := s.Stats().PredictedLate; (late == 1) == c.meets {
				t.Fatalf("PredictedLate = %d with meets = %v", late, c.meets)
			}
		})
	}
}

func TestSubmitFusedCustomEpsilon(t *testing.T) {
	s, err := New(Config{GPUWidths: []int{2}, DeadlineSeconds: 1, FusionEpsilonSeconds: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.SubmitFused(0, 1, []Estimates{
		{GPUSeconds: []float64{0.1}},
		{GPUSeconds: []float64{0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.End-d.Start, 0.2+2*0.01; math.Abs(got-want) > 1e-12 {
		t.Fatalf("booked service %v, want %v", got, want)
	}
}

func TestSubmitFusedValidation(t *testing.T) {
	s := fusionTestScheduler(t)
	if _, err := s.SubmitFused(0, 1, nil); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := s.SubmitFused(0, 1, []Estimates{{GPUSeconds: []float64{1}}}); err == nil {
		t.Error("wrong estimate arity accepted")
	}
	if st := s.Stats(); st.FusedJobs != 0 || st.Submitted != 0 {
		t.Fatalf("failed submissions leaked into stats: %+v", st)
	}
}

func TestFanInBuckets(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 32: 5, 33: 6, 100: 6}
	for k, want := range cases {
		if got := FanInBucket(k); got != want {
			t.Errorf("FanInBucket(%d) = %d, want %d", k, got, want)
		}
	}
	if len(FanInBucketLabels) != 7 {
		t.Fatalf("bucket labels: %v", FanInBucketLabels)
	}
}
