package sched

import (
	"errors"
	"math"
	"sync"
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
	first := s.SubmitMaintenance(1.0, 0.25)
	if first.Start != 1.0 || first.End != 1.25 || first.Queue != (QueueRef{Kind: QueueCPU}) {
		t.Fatalf("idle maintenance booking = %+v, want cpu [1,1.25]", first)
	}
	if got := s.QueueClock(QueueRef{Kind: QueueCPU}); got != 1.25 {
		t.Fatalf("CPU clock = %v, want 1.25", got)
	}
	// Busy queue: the job waits behind the booked work.
	d := s.SubmitMaintenance(1.0, 0.1)
	if d.Start != 1.25 || d.End != 1.35 {
		t.Fatalf("queued maintenance window = [%v,%v], want [1.25,1.35]", d.Start, d.End)
	}
	// Negative estimates clamp to zero-width bookings.
	d = s.SubmitMaintenance(1.0, -3)
	if d.Start != 1.35 || d.End != 1.35 {
		t.Fatalf("negative estimate window = [%v,%v], want [1.35,1.35]", d.Start, d.End)
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

	// Settling the first job corrects its over-estimate on the CPU queue.
	s.Settle(first, 1.0, Outcome{Ran: true, Seconds: 0.20})
	if got := s.QueueClock(QueueRef{Kind: QueueCPU}); math.Abs(got-1.31) > 1e-12 {
		t.Fatalf("clock after settling = %v, want 1.31", got)
	}
}

// TestSettle checks the one rule that closes every booking: each lane it
// booked moves by the time taken minus the time booked, so a job that
// never ran gives its window back, and only a GPU job that ran touches
// partition health.
func TestSettle(t *testing.T) {
	gpu0 := QueueRef{Kind: QueueGPU, Index: 0}
	trans := QueueRef{Kind: QueueCPU, Index: -1}
	est := Estimates{NeedsTranslation: true, TransSeconds: 0.1, GPUSeconds: flatGPU(0.5, 0.3, 0.2)}
	cfg := paperCfg()
	cfg.QuarantineThreshold = 1
	book := func(t *testing.T) (*Scheduler, Decision) {
		t.Helper()
		s := newPaper(t, cfg)
		d, err := s.Submit(1.0, est)
		if err != nil {
			t.Fatal(err)
		}
		if d.Queue != gpu0 || d.TransEnd != 1.1 || d.End != 1.6 {
			t.Fatalf("booking %+v, want gpu[0] after a 0.1 s translation", d)
		}
		return s, d
	}
	clocks := func(s *Scheduler) (float64, float64) { return s.QueueClock(trans), s.QueueClock(gpu0) }

	t.Run("ran", func(t *testing.T) {
		s, d := book(t)
		s.Settle(d, 1.2, Outcome{TransSeconds: 0.05, Ran: true, Seconds: 0.2})
		tr, g := clocks(s)
		if math.Abs(tr-1.2) > 1e-12 || math.Abs(g-1.3) > 1e-12 {
			t.Fatalf("clocks after a fast run: trans %v, gpu %v; want 1.2 (floored at now) and 1.3", tr, g)
		}
		if st := s.Stats(); st.Settled != 1 || st.PartitionFailures != 0 {
			t.Fatalf("stats %+v", st)
		}
	})
	t.Run("translation failed", func(t *testing.T) {
		s, d := book(t)
		s.Settle(d, 1.05, Outcome{TransSeconds: 0.03})
		tr, g := clocks(s)
		// Each lane gives its whole window back: the GPU lane returns to
		// where its window started, behind the translation gate.
		if math.Abs(tr-1.05) > 1e-12 || math.Abs(g-d.Start) > 1e-12 {
			t.Fatalf("clocks after a failed translation: trans %v, gpu %v; want 1.05 and %v", tr, g, d.Start)
		}
		if st, _ := s.health.State(0); st != Healthy || s.Stats().PartitionFailures != 0 {
			t.Fatal("a job that never ran blamed its partition")
		}
	})
	t.Run("failed", func(t *testing.T) {
		s, d := book(t)
		s.Settle(d, 1.3, Outcome{TransSeconds: 0.1, Ran: true, Seconds: 0.2, Failed: true})
		if st, _ := s.health.State(0); st != Quarantined || s.Stats().PartitionFailures != 1 {
			t.Fatal("a failed GPU run was not charged to its partition")
		}
		// Quarantine drops the lane to now after the failure's feedback.
		if _, g := clocks(s); g != 1.3 {
			t.Fatalf("quarantined gpu clock %v, want 1.3", g)
		}
	})
	t.Run("feedback disabled", func(t *testing.T) {
		off := cfg
		off.DisableFeedback = true
		s := newPaper(t, off)
		d, err := s.Submit(1.0, est)
		if err != nil {
			t.Fatal(err)
		}
		s.Settle(d, 1.05, Outcome{})
		if tr, g := clocks(s); tr != d.TransEnd || g != d.End || s.Stats().Settled != 1 {
			t.Fatalf("the ablation moved a clock: trans %v, gpu %v", tr, g)
		}
	})
}

// TestConcurrentUse drives every exported method from several goroutines
// at once: the scheduler serialises itself, so under -race nothing
// reports, and every booking is settled exactly once.
func TestConcurrentUse(t *testing.T) {
	s := newPaper(t, paperCfg())
	est := Estimates{NeedsTranslation: true, TransSeconds: 0.001, GPUSeconds: flatGPU(0.03, 0.015, 0.007)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				now := float64(i) * 1e-3
				if d, err := s.Submit(now, est); err == nil {
					s.Settle(d, now, Outcome{Ran: true, Seconds: 0.01, Failed: i%7 == w})
				}
				s.Settle(s.SubmitMaintenance(now, 0.001), now, Outcome{Ran: true})
				_, _ = s.Peek(now, est)
				_ = s.Stats()
				_ = s.HealthStates()
				_ = s.QueueClock(QueueRef{Kind: QueueGPU, Index: w})
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Submitted+st.Resubmitted+st.MaintenanceJobs != st.Settled {
		t.Fatalf("bookings %d + %d + %d != settlements %d", st.Submitted, st.Resubmitted, st.MaintenanceJobs, st.Settled)
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
			d, _ := s.Submit(now, est)
			settle := testing.AllocsPerRun(50, func() { s.Settle(d, now, Outcome{Ran: true, Seconds: 0.01}) })
			if peek != 0 || submit != 0 || fused != 0 || settle != 0 {
				t.Errorf("%v, translation %v: Peek %v allocs, Submit %v, SubmitFused %v, Settle %v, want 0 each",
					p, est.NeedsTranslation, peek, submit, fused, settle)
			}
		}
	}
}
