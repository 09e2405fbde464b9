package sched

import (
	"math/rand"
	"testing"
)

func TestPlanBatchValidation(t *testing.T) {
	s := newPaper(t, paperCfg())
	if _, err := s.PlanBatch(0, []Estimates{{GPUSeconds: []float64{1}}}, MinMin); err == nil {
		t.Fatal("wrong estimate arity accepted")
	}
	if _, err := s.PlanBatch(0, []Estimates{{
		GPUSeconds: flatGPU(1, 1, 1), CPUOK: true, NeedsTranslation: true,
	}}, MinMin); err == nil {
		t.Fatal("contradictory estimates accepted")
	}
}

func TestMinMinMapsSmallTasksFirst(t *testing.T) {
	s := newPaper(t, paperCfg())
	// One large task and three small ones. Min-min maps the small ones
	// first, so the large task sees loaded queues.
	ests := []Estimates{
		{GPUSeconds: flatGPU(4.0, 2.0, 1.0)}, // large
		{GPUSeconds: flatGPU(0.4, 0.2, 0.1)}, // small
		{GPUSeconds: flatGPU(0.4, 0.2, 0.1)}, // small
		{GPUSeconds: flatGPU(0.4, 0.2, 0.1)}, // small
	}
	ds, err := s.PlanBatch(0, ests, MinMin)
	if err != nil {
		t.Fatal(err)
	}
	// Small tasks start at time 0 on fast queues; the large one comes last
	// in mapping order, so it must start at 0 only if a queue is free.
	for i := 1; i <= 3; i++ {
		if ds[i].Start > 0.2001 {
			t.Fatalf("small task %d delayed to %v", i, ds[i].Start)
		}
	}
	if ds[0].End <= ds[1].End {
		t.Fatal("large task should finish after small ones under min-min")
	}
}

func TestMaxMinMapsLargeTaskFirst(t *testing.T) {
	s := newPaper(t, paperCfg())
	ests := []Estimates{
		{GPUSeconds: flatGPU(4.0, 2.0, 1.0)},
		{GPUSeconds: flatGPU(0.4, 0.2, 0.1)},
	}
	ds, err := s.PlanBatch(0, ests, MaxMin)
	if err != nil {
		t.Fatal(err)
	}
	// Max-min maps the big task first: it gets the fastest free queue and
	// starts at 0.
	if ds[0].Start != 0 {
		t.Fatalf("large task start = %v, want 0", ds[0].Start)
	}
	// The big task takes a 4SM queue (index 4 or 5).
	if ds[0].Queue.Kind != QueueGPU || ds[0].Queue.Index < 4 {
		t.Fatalf("large task queue = %v", ds[0].Queue)
	}
}

func TestPlanBatchRespectsCPUEligibility(t *testing.T) {
	s := newPaper(t, paperCfg())
	ests := []Estimates{
		{CPUOK: true, CPUSeconds: 0.0001, GPUSeconds: flatGPU(1, 1, 1)},
		{GPUSeconds: flatGPU(0.1, 0.05, 0.02), NeedsTranslation: true, TransSeconds: 0.01},
	}
	ds, err := s.PlanBatch(0, ests, MinMin)
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].Queue.Kind != QueueCPU {
		t.Fatalf("CPU-friendly task went to %v", ds[0].Queue)
	}
	if ds[1].Queue.Kind != QueueGPU {
		t.Fatalf("text task went to %v", ds[1].Queue)
	}
	// Translation gates the GPU start.
	if ds[1].Start < ds[1].TransEnd {
		t.Fatalf("GPU start %v before translation end %v", ds[1].Start, ds[1].TransEnd)
	}
}

// TestPlanBatchSkipsQuarantined: a batch ranks the same candidate sets
// Fig. 10 picks from, so a quarantined partition takes no batch work —
// not even when, as here, it is the fastest and its clock was just
// dropped to idle.
func TestPlanBatchSkipsQuarantined(t *testing.T) {
	for _, flavor := range []BatchFlavor{MinMin, MaxMin, Sufferage} {
		s := newPaper(t, paperCfg())
		failGPU(s, 4, 0)
		failGPU(s, 5, 0)
		ests := make([]Estimates, 12)
		for i := range ests {
			ests[i] = Estimates{GPUSeconds: flatGPU(0.4, 0.2, 0.1)}
		}
		ds, err := s.PlanBatch(0.1, ests, flavor)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range ds {
			if d.Queue.Kind == QueueGPU && d.Queue.Index >= 4 {
				t.Fatalf("%v: task %d placed on quarantined %v", flavor, i, d.Queue)
			}
		}
	}
}

func TestPlanBatchLoadBalances(t *testing.T) {
	// Many identical tasks spread across all six queues instead of piling
	// onto one.
	s := newPaper(t, paperCfg())
	ests := make([]Estimates, 24)
	for i := range ests {
		ests[i] = Estimates{GPUSeconds: flatGPU(0.4, 0.2, 0.1)}
	}
	ds, err := s.PlanBatch(0, ests, MinMin)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]int{}
	for _, d := range ds {
		used[d.Queue.Index]++
	}
	if len(used) < 5 {
		t.Fatalf("queues used = %v, want near-all", used)
	}
	if BatchMakespan(ds) <= 0 {
		t.Fatal("makespan should be positive")
	}
}

func TestBatchHeuristicTradeoffs(t *testing.T) {
	// The classic behaviour from the comparison study: on heterogeneous
	// batches, min-min favours mean completion time (small tasks finish
	// immediately) while max-min favours makespan (big rocks first). Check
	// both directions statistically over random batches.
	rng := rand.New(rand.NewSource(17))
	meanWins, makespanWins := 0, 0
	trials := 30
	for trial := 0; trial < trials; trial++ {
		var ests []Estimates
		for i := 0; i < 20; i++ {
			base := rng.Float64()*0.5 + 0.01
			if i%5 == 0 {
				base *= 8 // a few much larger tasks
			}
			ests = append(ests, Estimates{GPUSeconds: flatGPU(4*base, 2*base, base)})
		}
		mean := func(ds []Decision) float64 {
			var sum float64
			for _, d := range ds {
				sum += d.End
			}
			return sum / float64(len(ds))
		}
		smm, _ := New(paperCfg())
		dmm, err := smm.PlanBatch(0, ests, MinMin)
		if err != nil {
			t.Fatal(err)
		}
		sxm, _ := New(paperCfg())
		dxm, err := sxm.PlanBatch(0, ests, MaxMin)
		if err != nil {
			t.Fatal(err)
		}
		if mean(dmm) <= mean(dxm)+1e-9 {
			meanWins++
		}
		if BatchMakespan(dxm) <= BatchMakespan(dmm)+1e-9 {
			makespanWins++
		}
	}
	if meanWins < trials*2/3 {
		t.Fatalf("min-min won mean completion in only %d/%d trials", meanWins, trials)
	}
	if makespanWins < trials/2 {
		t.Fatalf("max-min won makespan in only %d/%d trials", makespanWins, trials)
	}
}

func TestBatchFlavorString(t *testing.T) {
	if MinMin.String() != "min-min" || MaxMin.String() != "max-min" {
		t.Fatal("flavor names wrong")
	}
	if BatchFlavor(9).String() != "BatchFlavor(9)" {
		t.Fatal("unknown flavor name wrong")
	}
}

func TestSufferageMapsRegretfulTaskFirst(t *testing.T) {
	s := newPaper(t, paperCfg())
	ests := []Estimates{
		{GPUSeconds: flatGPU(0.4, 0.2, 0.1)},
		{GPUSeconds: flatGPU(0.4, 0.2, 0.1)},
	}
	ds, err := s.PlanBatch(0, ests, Sufferage)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical tasks on an empty system: both land on distinct 4SM
	// queues and both start at 0.
	if ds[0].Start != 0 || ds[1].Start != 0 {
		t.Fatalf("starts = %v %v", ds[0].Start, ds[1].Start)
	}
	if ds[0].Queue == ds[1].Queue {
		t.Fatalf("both tasks on %v", ds[0].Queue)
	}
	if Sufferage.String() != "sufferage" {
		t.Fatal("name wrong")
	}
}

func TestPlanBatchUnknownFlavor(t *testing.T) {
	s := newPaper(t, paperCfg())
	if _, err := s.PlanBatch(0, []Estimates{{GPUSeconds: flatGPU(1, 1, 1)}}, BatchFlavor(9)); err == nil {
		t.Fatal("unknown flavor accepted")
	}
}
