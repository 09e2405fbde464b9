package engine

import (
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hybridolap/internal/perfmodel"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

func testSystem(t testing.TB, mutate func(*SetupSpec)) *System {
	t.Helper()
	spec := SetupSpec{Rows: 5000, Seed: 1}
	if mutate != nil {
		mutate(&spec)
	}
	s, err := Setup(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testGen(t testing.TB, s *System, seed int64, textProb float64) *query.Generator {
	t.Helper()
	g, err := query.NewGenerator(query.GenConfig{
		Schema:       s.Config().Table.Schema(),
		Seed:         seed,
		TextProb:     textProb,
		Dicts:        s.Config().Table.Dicts(),
		LevelWeights: []float64{0.4, 0.4, 0.15, 0.05},
		Ops:          []table.AggOp{table.AggSum, table.AggCount, table.AggAvg},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// served is one query's Serve outcome in a batch.
type served struct {
	ServeOutcome
	ID  int64
	Err error
}

// serveAll answers qs as a batch: one Serve per query on its own
// goroutine, the outcomes in input order.
func serveAll(s *System, qs []*query.Query) []served {
	out := make([]served, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, err := s.Serve(q)
			out[i] = served{ServeOutcome: o, ID: q.ID, Err: err}
		}()
	}
	wg.Wait()
	return out
}

// tally counts a batch's failed queries and the completed or failed ones
// that took more than one attempt.
func tally(outs []served) (failed, retried int) {
	for _, o := range outs {
		if o.Err != nil {
			failed++
		}
		if o.Attempts > 1 {
			retried++
		}
	}
	return failed, retried
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	s := testSystem(t, nil)
	cfg := s.Config()
	// Device/table mismatch.
	other, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Table = other
	if _, err := New(bad); err == nil {
		t.Fatal("device/table mismatch accepted")
	}
	// Unknown CPU thread count.
	bad = cfg
	bad.CPUThreads = 3
	if _, err := New(bad); err == nil {
		t.Fatal("CPUThreads=3 accepted with paper estimator")
	}
	// An estimator that cannot price one of the layout's partition widths.
	bad = cfg
	paper := perfmodel.PaperEstimator()
	bad.Estimator = &perfmodel.Estimator{CPU: paper.CPU, GPU: maps.Clone(paper.GPU), Dict: paper.Dict}
	delete(bad.Estimator.GPU, 2)
	if _, err := New(bad); err == nil {
		t.Fatal("estimator without a 2-SM GPU model accepted")
	}
}

// TestEstimateUsesConfiguredGPUModel: T_GPU comes from Config.Estimator,
// the same model the cluster and the advisor price the GPU with.
func TestEstimateUsesConfiguredGPUModel(t *testing.T) {
	q := &query.Query{
		ID:         1,
		Conditions: []query.Condition{{Dim: 0, Level: 3, From: 0, To: 100}},
		Measure:    0, Op: table.AggSum,
	}
	base, err := testSystem(t, nil).Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	est := perfmodel.PaperEstimator()
	m := est.GPU[4]
	m.Slope *= 10
	m.Intercept *= 10
	est.GPU[4] = m
	scaled, err := testSystem(t, func(sp *SetupSpec) { sp.Estimator = est }).Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []int{1, 1, 2, 2, 4, 4} {
		want := base.GPUSeconds[i]
		if w == 4 {
			want *= 10
		}
		if math.Abs(scaled.GPUSeconds[i]-want) > 1e-12 {
			t.Fatalf("partition %d (%d SMs): GPUSeconds = %v, want %v", i, w, scaled.GPUSeconds[i], want)
		}
	}
}

func TestEstimateDimensionQuery(t *testing.T) {
	s := testSystem(t, nil)
	q := &query.Query{
		ID:         1,
		Conditions: []query.Condition{{Dim: 0, Level: 1, From: 0, To: 15}},
		Measure:    0, Op: table.AggSum,
	}
	est, err := s.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !est.CPUOK {
		t.Fatal("level-1 query should be CPU-answerable (cube at level 1)")
	}
	if est.NeedsTranslation || est.TransSeconds != 0 {
		t.Fatal("dimension query should not need translation")
	}
	if len(est.GPUSeconds) != 6 {
		t.Fatalf("GPU estimates = %d, want 6", len(est.GPUSeconds))
	}
	// Slow partitions estimate slower.
	if !(est.GPUSeconds[0] > est.GPUSeconds[2] && est.GPUSeconds[2] > est.GPUSeconds[4]) {
		t.Fatalf("GPU estimate ordering wrong: %v", est.GPUSeconds)
	}
	// CPU estimate is the 8T model on the sub-cube size: 16 months x full
	// geo (16) x full product (32) cells at level 1 = 8192 cells = 256 KB.
	mb := 8192.0 * 32 / (1 << 20)
	want, _ := s.Config().Estimator.CPUTime(8, mb)
	if math.Abs(est.CPUSeconds-want) > 1e-12 {
		t.Fatalf("CPU estimate = %v, want %v", est.CPUSeconds, want)
	}
}

func TestEstimateTextQuery(t *testing.T) {
	s := testSystem(t, nil)
	q := &query.Query{
		ID:        2,
		TextConds: []query.TextCondition{{Column: "store_name", From: "a", To: "a"}},
		Measure:   0, Op: table.AggSum,
	}
	est, err := s.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if est.CPUOK {
		t.Fatal("text query must not be CPU-answerable")
	}
	if !est.NeedsTranslation || est.TransSeconds <= 0 {
		t.Fatalf("translation estimate = %+v", est)
	}
}

func TestEstimateTooFineQuery(t *testing.T) {
	s := testSystem(t, nil) // cubes at levels 0,1 only
	q := &query.Query{
		ID:         3,
		Conditions: []query.Condition{{Dim: 0, Level: 3, From: 0, To: 100}},
		Measure:    0, Op: table.AggSum,
	}
	est, err := s.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if est.CPUOK {
		t.Fatal("level-3 query must be GPU-bound without a fine cube")
	}
}

func TestVirtualLevelMakesCPUOK(t *testing.T) {
	s := testSystem(t, func(sp *SetupSpec) { sp.VirtualLevels = []int{2, 3} })
	q := &query.Query{
		ID:         4,
		Conditions: []query.Condition{{Dim: 0, Level: 3, From: 0, To: 100}},
		Measure:    0, Op: table.AggSum,
	}
	est, err := s.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !est.CPUOK {
		t.Fatal("virtual level should enable CPU estimation")
	}
	if est.CPUSeconds <= 0 {
		t.Fatal("virtual level estimate should be positive")
	}
}

func TestCPUAndGPUAgreeOnEveryQuery(t *testing.T) {
	// The headline integration property: for any cube-answerable query,
	// the CPU cube partition, every GPU partition and the reference scan
	// return the same answer.
	s := testSystem(t, nil)
	g := testGen(t, s, 7, 0)
	checked := 0
	for i := 0; i < 60; i++ {
		q := g.Next()
		if q.Resolution() > 1 || !cpuCanAnswer(q, s.cfg.Cubes) {
			continue // not cube-answerable in this setup
		}
		ref, err := s.Reference(q)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := s.AnswerOnCPU(q)
		if err != nil {
			t.Fatal(err)
		}
		if cpu.Rows != ref.Rows || math.Abs(cpu.Value-ref.Value) > 1e-6*math.Max(1, math.Abs(ref.Value)) {
			t.Fatalf("query %d: CPU (%v,%d) != ref (%v,%d)", q.ID, cpu.Value, cpu.Rows, ref.Value, ref.Rows)
		}
		gpu, err := s.AnswerOnGPU(q.Clone(), i%6)
		if err != nil {
			t.Fatal(err)
		}
		if gpu.Rows != ref.Rows || math.Abs(gpu.Value-ref.Value) > 1e-6*math.Max(1, math.Abs(ref.Value)) {
			t.Fatalf("query %d: GPU (%v,%d) != ref (%v,%d)", q.ID, gpu.Value, gpu.Rows, ref.Value, ref.Rows)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d queries checked; workload mix degenerate", checked)
	}
}

func TestGPUAnswersTextQueries(t *testing.T) {
	s := testSystem(t, nil)
	g := testGen(t, s, 8, 1.0)
	checked := 0
	for i := 0; i < 30; i++ {
		q := g.Next()
		if !q.GPUOnly() {
			continue
		}
		ref, err := s.Reference(q)
		if err != nil {
			t.Fatal(err)
		}
		qq := q.Clone()
		if _, err := query.Translate(qq, s.Config().Table.Dicts()); err != nil {
			t.Fatal(err)
		}
		gpu, err := s.AnswerOnGPU(qq, i%6)
		if err != nil {
			t.Fatal(err)
		}
		if gpu.Rows != ref.Rows || math.Abs(gpu.Value-ref.Value) > 1e-6*math.Max(1, math.Abs(ref.Value)) {
			t.Fatalf("query %d: GPU (%v,%d) != ref (%v,%d)", q.ID, gpu.Value, gpu.Rows, ref.Value, ref.Rows)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d text queries checked", checked)
	}
}

func TestAnswerErrors(t *testing.T) {
	s := testSystem(t, nil)
	textQ := &query.Query{TextConds: []query.TextCondition{{Column: "store_name", From: "a", To: "a"}}}
	if _, err := s.AnswerOnCPU(textQ); err == nil {
		t.Fatal("CPU answered a text query")
	}
	if _, err := s.AnswerOnGPU(&query.Query{Op: table.AggCount}, 99); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestRunModelBatchThroughput(t *testing.T) {
	s := testSystem(t, func(sp *SetupSpec) { sp.VirtualLevels = []int{2, 3} })
	g := testGen(t, s, 9, 0.3)
	qs := g.Batch(300)
	res, err := s.RunModel(qs, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 300 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Throughput <= 0 || res.MakespanSeconds <= 0 {
		t.Fatalf("throughput = %v makespan = %v", res.Throughput, res.MakespanSeconds)
	}
	if res.MeanLatencySeconds <= 0 {
		t.Fatal("mean latency should be positive")
	}
	if len(res.Outcomes) != 300 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	// Both sides should be used under the paper policy with this mix.
	st := res.SchedStats
	var gpuTotal int64
	for _, n := range st.ToGPU {
		gpuTotal += n
	}
	if st.ToCPU == 0 || gpuTotal == 0 {
		t.Fatalf("degenerate placement: cpu=%d gpu=%d", st.ToCPU, gpuTotal)
	}
	if u := res.Utilisation["cpu"]; u < 0 || u > 1 {
		t.Fatalf("cpu utilisation = %v", u)
	}
}

func TestRunModelDeterministic(t *testing.T) {
	mk := func() *ModelResult {
		s := testSystem(t, func(sp *SetupSpec) { sp.VirtualLevels = []int{2, 3} })
		g := testGen(t, s, 10, 0.3)
		res, err := s.RunModel(g.Batch(100), ModelOptions{Noise: Noise{Amplitude: 0.2, Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Throughput != b.Throughput || a.MetDeadline != b.MetDeadline || a.MakespanSeconds != b.MakespanSeconds {
		t.Fatalf("model run not deterministic: %v vs %v", a.Throughput, b.Throughput)
	}
}

// TestRunModelInjectedRng checks the injected-source contract: a run with
// Rng set to a source seeded S is bit-identical to a run with Seed S and
// nil Rng, so callers can sequence or share sources without losing
// reproducibility.
func TestRunModelInjectedRng(t *testing.T) {
	run := func(opts ModelOptions) *ModelResult {
		s := testSystem(t, func(sp *SetupSpec) { sp.VirtualLevels = []int{2, 3} })
		g := testGen(t, s, 10, 0.3)
		res, err := s.RunModel(g.Batch(100), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seeded := run(ModelOptions{
		Arrival: Arrival{RatePerSec: 50, Jitter: 0.2, Seed: 3},
		Noise:   Noise{Amplitude: 0.2, Seed: 5},
	})
	injected := run(ModelOptions{
		Arrival: Arrival{RatePerSec: 50, Jitter: 0.2, Rng: rand.New(rand.NewSource(3))},
		Noise:   Noise{Amplitude: 0.2, Rng: rand.New(rand.NewSource(5))},
	})
	if seeded.Throughput != injected.Throughput ||
		seeded.MakespanSeconds != injected.MakespanSeconds ||
		seeded.MetDeadline != injected.MetDeadline {
		t.Fatalf("injected rng diverged from seeded run: %+v vs %+v", seeded, injected)
	}
}

func TestRunModelOpenArrivals(t *testing.T) {
	s := testSystem(t, nil)
	g := testGen(t, s, 11, 0)
	res, err := s.RunModel(g.Batch(100), ModelOptions{
		Arrival: Arrival{RatePerSec: 50, Jitter: 0.2, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// An underloaded open system should meet essentially all deadlines.
	if res.MetDeadline < 95 {
		t.Fatalf("met = %d / 100", res.MetDeadline)
	}
	// Makespan at least the arrival span.
	if res.MakespanSeconds < 99.0/50 {
		t.Fatalf("makespan = %v", res.MakespanSeconds)
	}
}

func TestRunModelHybridBeatsSingleResource(t *testing.T) {
	// The paper's headline: hybrid > GPU-only, and hybrid > CPU-only, on a
	// mixed workload.
	run := func(policy sched.Policy) float64 {
		s := testSystem(t, func(sp *SetupSpec) {
			sp.VirtualLevels = []int{2, 3}
			sp.Policy = policy
		})
		// A CPU-answerable mix (sum over measure 0, no text) so the
		// CPU-only baseline can run the identical stream.
		g, err := query.NewGenerator(query.GenConfig{
			Schema:        s.Config().Table.Schema(),
			Seed:          12,
			LevelWeights:  []float64{0.4, 0.4, 0.15, 0.05},
			MeasureChoice: []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunModel(g.Batch(400), ModelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	hybrid := run(sched.PolicyPaper)
	gpuOnly := run(sched.PolicyGPUOnly)
	cpuOnly := run(sched.PolicyCPUOnly)
	if hybrid <= gpuOnly {
		t.Fatalf("hybrid (%v q/s) should beat GPU-only (%v q/s)", hybrid, gpuOnly)
	}
	if hybrid <= cpuOnly {
		t.Fatalf("hybrid (%v q/s) should beat CPU-only (%v q/s)", hybrid, cpuOnly)
	}
}

func TestRunModelNoiseWithFeedbackStillCompletes(t *testing.T) {
	s := testSystem(t, nil)
	g := testGen(t, s, 13, 0.3)
	res, err := s.RunModel(g.Batch(200), ModelOptions{Noise: Noise{Amplitude: 0.3, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestRunRealAnswersMatchReference(t *testing.T) {
	s := testSystem(t, func(sp *SetupSpec) { sp.Rows = 3000 })
	g := testGen(t, s, 14, 0.3)
	qs := g.Batch(60)
	for i, o := range serveAll(s, qs) {
		if o.Err != nil {
			t.Fatalf("query %d: %v", o.ID, o.Err)
		}
		ref, err := s.Reference(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if o.Result.Rows != ref.Rows || math.Abs(o.Result.Value-ref.Value) > 1e-6*math.Max(1, math.Abs(ref.Value)) {
			t.Fatalf("query %d via %v: got (%v,%d), want (%v,%d)",
				o.ID, o.Queue, o.Result.Value, o.Result.Rows, ref.Value, ref.Rows)
		}
	}
}

func TestRunRealDoesNotMutateInputQueries(t *testing.T) {
	s := testSystem(t, func(sp *SetupSpec) { sp.Rows = 1000 })
	g := testGen(t, s, 15, 1.0)
	qs := g.Batch(10)
	for _, o := range serveAll(s, qs) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	for _, q := range qs {
		for _, tc := range q.TextConds {
			if tc.Translated {
				t.Fatal("Serve mutated a caller query")
			}
		}
	}
}

func TestSetupValidation(t *testing.T) {
	if _, err := Setup(SetupSpec{Rows: 10, CubeLevels: []int{0}, VirtualLevels: []int{-1}}); err == nil {
		t.Fatal("negative virtual level accepted")
	}
	if _, err := Setup(SetupSpec{Rows: 10, Layout: []int{3}}); err == nil {
		t.Fatal("layout without model accepted")
	}
	if _, err := Setup(SetupSpec{Rows: 10, CPUThreads: 5}); err == nil {
		t.Fatal("unknown CPU thread count accepted")
	}
}

func TestRunRealWithInListQueries(t *testing.T) {
	s := testSystem(t, func(sp *SetupSpec) { sp.Rows = 2000 })
	g, err := query.NewGenerator(query.GenConfig{
		Schema:        s.Config().Table.Schema(),
		Seed:          23,
		TextProb:      0.8,
		TextInProb:    0.7,
		Dicts:         s.Config().Table.Dicts(),
		LevelWeights:  []float64{0.5, 0.5},
		MeasureChoice: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Batch(30)
	sawIn := false
	for _, q := range qs {
		for _, tc := range q.TextConds {
			if len(tc.In) > 0 {
				sawIn = true
			}
		}
	}
	if !sawIn {
		t.Fatal("generator produced no IN lists")
	}
	for i, o := range serveAll(s, qs) {
		if o.Err != nil {
			t.Fatalf("query %d: %v", o.ID, o.Err)
		}
		ref, err := s.Reference(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if o.Result.Rows != ref.Rows || math.Abs(o.Result.Value-ref.Value) > 1e-6*math.Max(1, math.Abs(ref.Value)) {
			t.Fatalf("query %d: got (%v,%d) want (%v,%d)", o.ID, o.Result.Value, o.Result.Rows, ref.Value, ref.Rows)
		}
	}
}

func TestWriteTrace(t *testing.T) {
	s := testSystem(t, nil)
	g := testGen(t, s, 29, 0.2)
	res, err := s.RunModel(g.Batch(25), ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 25 {
		t.Fatalf("trace lines = %d", len(lines))
	}
	var rec TraceRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Queue == "" || rec.FinishedAt < rec.SubmittedAt {
		t.Fatalf("record = %+v", rec)
	}
}

func TestRunModelPoissonArrivals(t *testing.T) {
	s := testSystem(t, nil)
	g := testGen(t, s, 31, 0)
	res, err := s.RunModel(g.Batch(200), ModelOptions{
		Arrival: Arrival{RatePerSec: 100, Poisson: true, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// Mean inter-arrival 10ms over 200 arrivals: makespan near 2s with
	// generous slack for exponential variance.
	if res.MakespanSeconds < 1.0 || res.MakespanSeconds > 4.0 {
		t.Fatalf("makespan = %v, want ~2s", res.MakespanSeconds)
	}
	// Deterministic across runs.
	s2 := testSystem(t, nil)
	g2 := testGen(t, s2, 31, 0)
	res2, err := s2.RunModel(g2.Batch(200), ModelOptions{
		Arrival: Arrival{RatePerSec: 100, Poisson: true, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.MakespanSeconds != res.MakespanSeconds {
		t.Fatal("poisson arrivals not deterministic for a fixed seed")
	}
}
