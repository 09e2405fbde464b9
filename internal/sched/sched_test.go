package sched

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// paperCfg returns the paper's configuration: 6 GPU partitions slow→fast,
// 1 s deadline.
func paperCfg() Config {
	return Config{
		GPUWidths:       []int{1, 1, 2, 2, 4, 4},
		DeadlineSeconds: 1.0,
	}
}

// flatGPU builds per-partition estimates from per-width service times.
func flatGPU(w1, w2, w4 float64) []float64 {
	return []float64{w1, w1, w2, w2, w4, w4}
}

func newPaper(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{DeadlineSeconds: 1}); err == nil {
		t.Fatal("no GPU partitions accepted for paper policy")
	}
	if _, err := New(Config{GPUWidths: []int{0}, DeadlineSeconds: 1}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := New(Config{GPUWidths: []int{1}, DeadlineSeconds: 0}); err == nil {
		t.Fatal("zero deadline accepted")
	}
	if _, err := New(Config{DeadlineSeconds: 1, Policy: PolicyCPUOnly}); err != nil {
		t.Fatal("CPU-only without GPUs should be allowed:", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newPaper(t, paperCfg())
	if _, err := s.Submit(0, Estimates{GPUSeconds: []float64{1}}); err == nil {
		t.Fatal("wrong estimate count accepted")
	}
	if _, err := s.Submit(0, Estimates{GPUSeconds: flatGPU(1, 1, 1), CPUOK: true, NeedsTranslation: true}); err == nil {
		t.Fatal("CPUOK+NeedsTranslation accepted")
	}
}

func TestCPUPreferredWhenFasterThanFastestGPU(t *testing.T) {
	s := newPaper(t, paperCfg())
	est := Estimates{
		CPUOK: true, CPUSeconds: 0.001,
		GPUSeconds: flatGPU(0.03, 0.015, 0.007),
	}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Kind != QueueCPU {
		t.Fatalf("queue = %v, want cpu", d.Queue)
	}
	if !d.MeetsDeadline || d.End != 0.001 {
		t.Fatalf("decision = %+v", d)
	}
	if s.QueueClock(QueueRef{Kind: QueueCPU}) != 0.001 {
		t.Fatal("CPU clock not updated")
	}
}

func TestGPUChosenWhenCPUSlower(t *testing.T) {
	s := newPaper(t, paperCfg())
	est := Estimates{
		CPUOK: true, CPUSeconds: 0.5, // slower than fastest GPU (0.007)
		GPUSeconds: flatGPU(0.03, 0.015, 0.007),
	}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Kind != QueueGPU {
		t.Fatalf("queue = %v, want gpu", d.Queue)
	}
	// Slowest-first: the first 1-SM queue takes it (it meets the 1 s deadline).
	if d.Queue.Index != 0 {
		t.Fatalf("index = %d, want 0 (slowest first)", d.Queue.Index)
	}
}

func TestSlowestFirstFillsSlowQueuesFirst(t *testing.T) {
	s := newPaper(t, paperCfg())
	est := Estimates{GPUSeconds: flatGPU(0.3, 0.15, 0.07)}
	var got []int
	for i := 0; i < 6; i++ {
		d, err := s.Submit(0, est)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d.Queue.Index)
	}
	// Deadline is 1 s; queue 0 drains at 0.3, still before deadline, so the
	// second query lands on queue 0 again (0.6), third (0.9), then the
	// fourth would end at 1.2 > deadline and moves to queue 1.
	want := []int{0, 0, 0, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement = %v, want %v", got, want)
		}
	}
}

func TestFastestFirstPlacement(t *testing.T) {
	cfg := paperCfg()
	cfg.Placement = PlaceFastestFirst
	s := newPaper(t, cfg)
	d, err := s.Submit(0, Estimates{GPUSeconds: flatGPU(0.3, 0.15, 0.07)})
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Index != 5 {
		t.Fatalf("index = %d, want 5 (fastest first)", d.Queue.Index)
	}
}

func TestStep6FallbackPicksMinResponse(t *testing.T) {
	cfg := paperCfg()
	cfg.DeadlineSeconds = 0.001 // nothing can meet this
	s := newPaper(t, cfg)
	est := Estimates{
		CPUOK: true, CPUSeconds: 0.5,
		GPUSeconds: flatGPU(0.03, 0.015, 0.007),
	}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.MeetsDeadline {
		t.Fatal("deadline impossibly met")
	}
	// Fastest response is a 4-SM partition at 0.007 s.
	if d.Queue.Kind != QueueGPU || d.Queue.Index != 4 {
		t.Fatalf("queue = %v, want gpu[4]", d.Queue)
	}
	if s.Stats().PredictedLate != 1 {
		t.Fatal("PredictedLate not counted")
	}
}

func TestStep6FallbackCPUWhenFastest(t *testing.T) {
	cfg := paperCfg()
	cfg.DeadlineSeconds = 0.0001
	s := newPaper(t, cfg)
	est := Estimates{
		CPUOK: true, CPUSeconds: 0.001, // CPU fastest overall
		GPUSeconds: flatGPU(0.03, 0.015, 0.007),
	}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Kind != QueueCPU {
		t.Fatalf("queue = %v, want cpu", d.Queue)
	}
}

func TestTranslationGatesGPUStart(t *testing.T) {
	s := newPaper(t, paperCfg())
	est := Estimates{
		NeedsTranslation: true, TransSeconds: 0.1,
		GPUSeconds: flatGPU(0.03, 0.015, 0.007),
	}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.TransStart != 0 || d.TransEnd != 0.1 {
		t.Fatalf("translation window = [%v,%v]", d.TransStart, d.TransEnd)
	}
	// GPU work cannot start before translation completes.
	if d.Start != 0.1 || math.Abs(d.End-0.13) > 1e-12 {
		t.Fatalf("processing window = [%v,%v]", d.Start, d.End)
	}
	// The translation queue clock advanced.
	if s.QueueClock(QueueRef{Kind: QueueCPU, Index: -1}) != 0.1 {
		t.Fatal("translation clock not updated")
	}
	if s.Stats().Translated != 1 {
		t.Fatal("Translated not counted")
	}
	// A second translated query queues behind the first translation.
	d2, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d2.TransStart != 0.1 || d2.TransEnd != 0.2 {
		t.Fatalf("second translation window = [%v,%v]", d2.TransStart, d2.TransEnd)
	}
}

func TestTranslationMaxGate(t *testing.T) {
	// When the GPU queue drains later than translation, the max() applies.
	s := newPaper(t, paperCfg())
	busy := Estimates{GPUSeconds: flatGPU(0.5, 0.5, 0.5)}
	if _, err := s.Submit(0, busy); err != nil {
		t.Fatal(err)
	}
	est := Estimates{
		NeedsTranslation: true, TransSeconds: 0.01,
		GPUSeconds: flatGPU(0.1, 0.1, 0.1),
	}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Index != 0 {
		t.Fatalf("index = %d", d.Queue.Index)
	}
	// Translation finishes at 0.01, queue 0 drains at 0.5: start = 0.5.
	if d.Start != 0.5 || d.End != 0.6 {
		t.Fatalf("window = [%v,%v], want [0.5,0.6]", d.Start, d.End)
	}
}

func TestTransOnCPUQueueAblation(t *testing.T) {
	cfg := paperCfg()
	cfg.Translation = TransOnCPUQueue
	s := newPaper(t, cfg)
	// Load the CPU processing queue first.
	if _, err := s.Submit(0, Estimates{CPUOK: true, CPUSeconds: 0.4,
		GPUSeconds: flatGPU(9, 9, 9)}); err != nil {
		t.Fatal(err)
	}
	est := Estimates{
		NeedsTranslation: true, TransSeconds: 0.05,
		GPUSeconds: flatGPU(0.03, 0.02, 0.01),
	}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	// Translation contends with cube processing: starts at 0.4.
	if d.TransStart != 0.4 || d.TransEnd != 0.45 {
		t.Fatalf("translation window = [%v,%v], want [0.4,0.45]", d.TransStart, d.TransEnd)
	}
	// CPU clock now includes the translation.
	if got := s.QueueClock(QueueRef{Kind: QueueCPU}); got != 0.45 {
		t.Fatalf("CPU clock = %v, want 0.45", got)
	}
}

func TestGPUOnlyPolicyNeverUsesCPU(t *testing.T) {
	cfg := paperCfg()
	cfg.Policy = PolicyGPUOnly
	s := newPaper(t, cfg)
	est := Estimates{
		CPUOK: true, CPUSeconds: 0.0001, // CPU would win under paper policy
		GPUSeconds: flatGPU(0.03, 0.015, 0.007),
	}
	for i := 0; i < 10; i++ {
		d, err := s.Submit(0, est)
		if err != nil {
			t.Fatal(err)
		}
		if d.Queue.Kind != QueueGPU {
			t.Fatalf("gpu-only sent query to %v", d.Queue)
		}
	}
	if s.Stats().ToCPU != 0 {
		t.Fatal("gpu-only used CPU")
	}
}

func TestCPUOnlyPolicy(t *testing.T) {
	cfg := Config{DeadlineSeconds: 1, Policy: PolicyCPUOnly}
	s := newPaper(t, cfg)
	d, err := s.Submit(0, Estimates{CPUOK: true, CPUSeconds: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Kind != QueueCPU || d.End != 0.25 {
		t.Fatalf("decision = %+v", d)
	}
	// Sequential backlog accumulates.
	d, _ = s.Submit(0, Estimates{CPUOK: true, CPUSeconds: 0.25})
	if d.Start != 0.25 || d.End != 0.5 {
		t.Fatalf("second = %+v", d)
	}
	// GPU-only query rejected.
	if _, err := s.Submit(0, Estimates{CPUOK: false}); !errors.Is(err, ErrUnanswerable) {
		t.Fatalf("err = %v, want ErrUnanswerable", err)
	}
	if s.Stats().RejectedQueries != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestMCTPicksEarliestCompletion(t *testing.T) {
	cfg := paperCfg()
	cfg.Policy = PolicyMCT
	s := newPaper(t, cfg)
	est := Estimates{GPUSeconds: flatGPU(0.03, 0.015, 0.007)}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Index != 4 { // first 4-SM partition
		t.Fatalf("index = %d, want 4", d.Queue.Index)
	}
	// Next identical query: queue 4 now drains at 0.007, so queue 5 (empty)
	// completes earlier.
	d, _ = s.Submit(0, est)
	if d.Queue.Index != 5 {
		t.Fatalf("second index = %d, want 5", d.Queue.Index)
	}
	// CPU chosen when strictly earliest.
	d, _ = s.Submit(0, Estimates{CPUOK: true, CPUSeconds: 0.001, GPUSeconds: flatGPU(1, 1, 1)})
	if d.Queue.Kind != QueueCPU {
		t.Fatalf("queue = %v, want cpu", d.Queue)
	}
}

func TestMETIgnoresQueueBacklog(t *testing.T) {
	cfg := paperCfg()
	cfg.Policy = PolicyMET
	s := newPaper(t, cfg)
	est := Estimates{GPUSeconds: flatGPU(0.03, 0.015, 0.007)}
	var idx []int
	for i := 0; i < 4; i++ {
		d, err := s.Submit(0, est)
		if err != nil {
			t.Fatal(err)
		}
		idx = append(idx, d.Queue.Index)
	}
	// MET always picks the minimal service time: the first 4-SM queue,
	// piling up work on it (its defining pathology).
	for _, i := range idx {
		if i != 4 {
			t.Fatalf("MET placements = %v, want all 4", idx)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	cfg := paperCfg()
	cfg.Policy = PolicyRoundRobin
	s := newPaper(t, cfg)
	est := Estimates{CPUOK: true, CPUSeconds: 0.01, GPUSeconds: flatGPU(0.03, 0.015, 0.007)}
	seen := make(map[string]int)
	for i := 0; i < 14; i++ {
		d, err := s.Submit(0, est)
		if err != nil {
			t.Fatal(err)
		}
		seen[d.Queue.String()]++
	}
	if len(seen) != 7 { // 6 GPU + CPU
		t.Fatalf("round robin visited %d queues: %v", len(seen), seen)
	}
	for q, n := range seen {
		if n != 2 {
			t.Fatalf("uneven round robin at %s: %v", q, seen)
		}
	}
}

func TestRoundRobinSkipsCPUWhenNotOK(t *testing.T) {
	cfg := Config{GPUWidths: []int{1, 2}, DeadlineSeconds: 1, Policy: PolicyRoundRobin}
	s := newPaper(t, cfg)
	est := Estimates{GPUSeconds: []float64{0.1, 0.05}}
	for i := 0; i < 6; i++ {
		d, err := s.Submit(0, est)
		if err != nil {
			t.Fatal(err)
		}
		if d.Queue.Kind == QueueCPU {
			t.Fatal("round robin placed GPU-only query on CPU")
		}
	}
}

func TestFeedbackAdjustsClock(t *testing.T) {
	s := newPaper(t, paperCfg())
	est := Estimates{GPUSeconds: flatGPU(0.3, 0.2, 0.1)}
	d, err := s.Submit(0, est)
	if err != nil {
		t.Fatal(err)
	}
	// Query actually took 0.5 s instead of 0.3: clock shifts by +0.2.
	s.Feedback(d.Queue, 0.2, 0)
	if got := s.QueueClock(d.Queue); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("clock = %v, want 0.5", got)
	}
	// Negative delta clamps at now.
	s.Feedback(d.Queue, -99, 0.4)
	if got := s.QueueClock(d.Queue); got != 0.4 {
		t.Fatalf("clock = %v, want clamp at 0.4", got)
	}
	// Translation queue feedback addressable as {CPU, -1}.
	s.Feedback(QueueRef{Kind: QueueCPU, Index: -1}, 0.05, 0)
	if got := s.QueueClock(QueueRef{Kind: QueueCPU, Index: -1}); got != 0.05 {
		t.Fatalf("translation clock = %v", got)
	}
}

func TestFeedbackDisabled(t *testing.T) {
	cfg := paperCfg()
	cfg.DisableFeedback = true
	s := newPaper(t, cfg)
	d, _ := s.Submit(0, Estimates{GPUSeconds: flatGPU(0.3, 0.2, 0.1)})
	s.Feedback(d.Queue, 5, 0)
	if got := s.QueueClock(d.Queue); got != 0.3 {
		t.Fatalf("disabled feedback moved clock to %v", got)
	}
}

func TestDeadlineAbsolute(t *testing.T) {
	s := newPaper(t, paperCfg())
	d, err := s.Submit(10, Estimates{GPUSeconds: flatGPU(0.3, 0.2, 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if d.Deadline != 11 {
		t.Fatalf("deadline = %v, want 11", d.Deadline)
	}
	// Queue clocks clamp to now: the job starts at 10, not 0.
	if d.Start != 10 {
		t.Fatalf("start = %v, want 10", d.Start)
	}
}

func TestStatsCounters(t *testing.T) {
	s := newPaper(t, paperCfg())
	est := Estimates{CPUOK: true, CPUSeconds: 0.001, GPUSeconds: flatGPU(0.03, 0.015, 0.007)}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(0, est); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Submitted != 3 || st.ToCPU != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Stats snapshot is a copy.
	st.ToGPU[0] = 99
	if s.Stats().ToGPU[0] == 99 {
		t.Fatal("Stats leaked internal slice")
	}
}

// Property: for any sequence of queries, the paper scheduler never
// schedules a GPU job to start before its translation completes, never
// moves a queue clock backwards, and always picks a queue in range.
func TestSchedulerInvariantsProperty(t *testing.T) {
	f := func(jobs []struct {
		CPUms   uint16
		GPUms   uint16
		Transms uint16
		Text    bool
		CPUOK   bool
	}) bool {
		s, err := New(paperCfg())
		if err != nil {
			return false
		}
		prevClocks := make([]float64, 7)
		now := 0.0
		for _, j := range jobs {
			g := float64(j.GPUms%1000)/1000 + 0.001
			est := Estimates{
				GPUSeconds: flatGPU(4*g, 2*g, g),
			}
			if j.Text {
				est.NeedsTranslation = true
				est.TransSeconds = float64(j.Transms%100) / 1000
			} else if j.CPUOK {
				est.CPUOK = true
				est.CPUSeconds = float64(j.CPUms%2000) / 1000
			}
			d, err := s.Submit(now, est)
			if err != nil {
				return false
			}
			if d.Queue.Kind == QueueGPU {
				if d.Queue.Index < 0 || d.Queue.Index >= 6 {
					return false
				}
				if est.NeedsTranslation && d.Start < d.TransEnd {
					return false
				}
			}
			if d.End < d.Start || d.Start < now {
				return false
			}
			// Clocks are monotone.
			clocks := []float64{
				s.QueueClock(QueueRef{Kind: QueueCPU}),
				s.QueueClock(QueueRef{Kind: QueueCPU, Index: -1}),
			}
			for i := 0; i < 6; i++ {
				clocks = append(clocks, s.QueueClock(QueueRef{Kind: QueueGPU, Index: i}))
			}
			for i := range clocks {
				if clocks[i] < prevClocks[0]*0 { // clocks nonnegative
					return false
				}
			}
			prevClocks = clocks
			now += 0.001
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubmitPaper(b *testing.B) {
	s, err := New(paperCfg())
	if err != nil {
		b.Fatal(err)
	}
	est := Estimates{CPUOK: true, CPUSeconds: 0.01, GPUSeconds: flatGPU(0.03, 0.015, 0.007)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(float64(i)*0.01, est); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSubmitMaintenance(t *testing.T) {
	s := newPaper(t, paperCfg())
	// Idle queue: the job starts now and books its full estimate.
	start, end := s.SubmitMaintenance(1.0, 0.25)
	if start != 1.0 || end != 1.25 {
		t.Fatalf("idle maintenance window = [%v,%v], want [1,1.25]", start, end)
	}
	if got := s.QueueClock(QueueRef{Kind: QueueCPU}); got != 1.25 {
		t.Fatalf("CPU clock = %v, want 1.25", got)
	}
	// Busy queue: the job waits behind the booked work.
	start, end = s.SubmitMaintenance(1.0, 0.1)
	if start != 1.25 || end != 1.35 {
		t.Fatalf("queued maintenance window = [%v,%v], want [1.25,1.35]", start, end)
	}
	// Negative estimates clamp to zero-width bookings.
	start, end = s.SubmitMaintenance(1.0, -3)
	if start != 1.35 || end != 1.35 {
		t.Fatalf("negative estimate window = [%v,%v], want [1.35,1.35]", start, end)
	}
	if got := s.Stats().MaintenanceJobs; got != 3 {
		t.Fatalf("MaintenanceJobs = %d, want 3", got)
	}

	// A query submitted after maintenance sees T_Q including the booked
	// maintenance work — maintenance keeps the queue clock honest.
	est := Estimates{CPUOK: true, CPUSeconds: 0.01, GPUSeconds: flatGPU(10, 10, 10)}
	d, err := s.Submit(1.0, est)
	if err != nil {
		t.Fatal(err)
	}
	if d.Queue.Kind != QueueCPU || d.Start != 1.35 {
		t.Fatalf("query after maintenance: %+v, want CPU start 1.35", d)
	}

	// Feedback on the CPU queue corrects over-estimated maintenance.
	s.Feedback(QueueRef{Kind: QueueCPU}, -0.05, 1.0)
	if got := s.QueueClock(QueueRef{Kind: QueueCPU}); math.Abs(got-1.31) > 1e-12 {
		t.Fatalf("clock after feedback = %v, want 1.31", got)
	}
}

// TestPlacementAllocs pins the cost of one placement: the candidate set
// and a fused job's combined estimates live in the scheduler's scratch and
// a pick is a plain function, so neither Peek, Submit nor SubmitFused
// allocates, with or without translation and a link cost.
func TestPlacementAllocs(t *testing.T) {
	for p := PolicyPaper; p <= PolicyRoundRobin; p++ {
		cfg := paperCfg()
		cfg.Policy = p
		cfg.Placement = PlaceRoundRobin
		s := newPaper(t, cfg)
		for _, est := range []Estimates{
			{CPUOK: true, CPUSeconds: 0.01, GPUSeconds: flatGPU(0.03, 0.015, 0.007)},
			{NeedsTranslation: true, TransSeconds: 0.001, GPUSeconds: flatGPU(0.03, 0.015, 0.007), LinkSeconds: 0.002},
		} {
			now := 0.0
			peek := testing.AllocsPerRun(50, func() { _, _ = s.Peek(now, est) })
			submit := testing.AllocsPerRun(50, func() { now += 0.01; _, _ = s.Submit(now, est) })
			members := []Estimates{est, est}
			fused := testing.AllocsPerRun(50, func() { now += 0.01; _, _ = s.SubmitFused(now, now+1, members) })
			if peek != 0 || submit != 0 || fused != 0 {
				t.Errorf("%v, translation %v: Peek %v allocs, Submit %v, SubmitFused %v, want 0, 0 and 0",
					p, est.NeedsTranslation, peek, submit, fused)
			}
		}
	}
}
