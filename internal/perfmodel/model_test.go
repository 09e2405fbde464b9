package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPaperCPUModelsMatchPublishedValues(t *testing.T) {
	// Eq. (7): f_A|4T(100 MB) = 1e-4 * 100^0.9341.
	want := 1e-4 * math.Pow(100, 0.9341)
	if got := PaperCPU4T.Eval(100); !close(got, want, 1e-12) {
		t.Fatalf("4T A eval = %v, want %v", got, want)
	}
	// Eq. (7): f_B|4T(1024 MB) = 5e-5*1024 + 0.0096.
	if got := PaperCPU4T.Eval(1024); !close(got, 5e-5*1024+0.0096, 1e-12) {
		t.Fatalf("4T B eval = %v", got)
	}
	// Eq. (10): 8T at 32 GB = 4e-5*32768 + 0.0146 ≈ 1.325 s.
	if got := PaperCPU8T.Eval(32768); !close(got, 1.3253, 1e-3) {
		t.Fatalf("8T 32GB eval = %v, want ~1.325", got)
	}
	// Zero and negative sizes cost nothing.
	if PaperCPU8T.Eval(0) != 0 || PaperCPU8T.Eval(-5) != 0 {
		t.Fatal("non-positive size should cost 0")
	}
}

func TestCPUModelPieceSelection(t *testing.T) {
	m := CPUModel{BreakMB: 512, A: PowerLaw{Coef: 1, Exp: 1}, B: Linear{Slope: 0, Intercept: 99}}
	if got := m.Eval(511); got != 511 {
		t.Fatalf("below break used wrong piece: %v", got)
	}
	if got := m.Eval(512); got != 99 {
		t.Fatalf("at break used wrong piece: %v", got)
	}
}

func TestCPUModelFasterWithMoreThreads(t *testing.T) {
	// The published models must preserve the paper's ordering: at every
	// size, 8T <= 4T <= 1T.
	for _, mb := range []float64{1, 10, 100, 511, 512, 1024, 32768} {
		t1 := PaperCPU1T.Eval(mb)
		t4 := PaperCPU4T.Eval(mb)
		t8 := PaperCPU8T.Eval(mb)
		if !(t8 <= t4 && t4 <= t1) {
			t.Fatalf("thread ordering violated at %v MB: 1T=%v 4T=%v 8T=%v", mb, t1, t4, t8)
		}
	}
}

func TestPaperGPUModels(t *testing.T) {
	// Eq. (14): full-table scan (C/C_TOT = 1) on 1 SM.
	if got := PaperGPU1SM.Eval(1); !close(got, 0.0288, 1e-9) {
		t.Fatalf("1SM full scan = %v, want 0.0288", got)
	}
	// Wider partitions are faster at every fraction.
	for _, frac := range []float64{0, 0.25, 0.5, 1} {
		t1 := PaperGPU1SM.Eval(frac)
		t2 := PaperGPU2SM.Eval(frac)
		t4 := PaperGPU4SM.Eval(frac)
		t14 := PaperGPU14SM.Eval(frac)
		if !(t14 < t4 && t4 < t2 && t2 < t1) {
			t.Fatalf("SM ordering violated at frac %v", frac)
		}
	}
	if len(PaperGPUModels()) != 4 {
		t.Fatal("PaperGPUModels should expose 1/2/4/14 SM")
	}
}

func TestDictModel(t *testing.T) {
	// Eq. (17): 1M-entry dictionary costs 13.8 ms per lookup.
	if got := PaperDict.Eval(1_000_000); !close(got, 0.0138, 1e-9) {
		t.Fatalf("P_DICT(1e6) = %v, want 0.0138", got)
	}
	if PaperDict.Eval(0) != 0 || PaperDict.Eval(-3) != 0 {
		t.Fatal("empty dictionary should cost 0")
	}
	// Eq. (18): the bound sums per-column lookups.
	got := PaperDict.TransTime([]int{1000, 2000, 3000})
	if !close(got, PaperDict.Eval(6000), 1e-15) {
		t.Fatalf("TransTime = %v", got)
	}
	if PaperDict.TransTime(nil) != 0 {
		t.Fatal("no pending translations should cost 0")
	}
}

func TestEstimator(t *testing.T) {
	e := PaperEstimator()
	if _, err := e.CPUTime(4, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CPUTime(3, 100); err == nil {
		t.Fatal("unknown thread count accepted")
	}
	got, err := e.GPUTime(4, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !close(got, 0.0008*0.5+0.0065, 1e-12) {
		t.Fatalf("GPUTime = %v", got)
	}
	if _, err := e.GPUTime(3, 1, 6); err == nil {
		t.Fatal("unknown SM count accepted")
	}
	if _, err := e.GPUTime(1, 1, 0); err == nil {
		t.Fatal("zero totalCols accepted")
	}
	if got := e.TransTime([]int{1_000_000}); !close(got, 0.0138, 1e-9) {
		t.Fatalf("TransTime = %v", got)
	}
}

func TestEstimateSeconds(t *testing.T) {
	e := PaperEstimator()
	// 4-SM partition, half the columns: eq. (14).
	got, err := e.GPUTime(4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0008*0.5 + 0.0065
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
	// Every partition width answers with its own eq. (14) model.
	for sms, m := range PaperGPUModels() {
		est, err := e.GPUTime(sms, 8, 16)
		if err != nil || est != m.Eval(0.5) {
			t.Fatalf("%d SMs: estimate = (%v,%v), want %v", sms, est, err, m.Eval(0.5))
		}
	}
	if _, err := e.GPUTime(3, 1, 16); err == nil {
		t.Fatal("unknown SM width accepted")
	}
	if _, err := e.GPUTime(4, 1, 0); err == nil {
		t.Fatal("zero totalCols accepted")
	}
}

func TestWiderPartitionsEstimateFaster(t *testing.T) {
	e := PaperEstimator()
	prev := math.Inf(1)
	for _, sms := range []int{1, 2, 4, 14} {
		est, err := e.GPUTime(sms, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		if est >= prev {
			t.Fatalf("%d SMs not faster than narrower partition", sms)
		}
		prev = est
	}
}

func TestBandwidthMBs(t *testing.T) {
	if got := BandwidthMBs(1024, 2); got != 512 {
		t.Fatalf("BandwidthMBs = %v", got)
	}
	if BandwidthMBs(100, 0) != 0 {
		t.Fatal("zero time should yield 0 bandwidth")
	}
}

func TestFitLinearExact(t *testing.T) {
	pts := []Point{{0, 1}, {1, 3}, {2, 5}, {3, 7}}
	l, err := FitLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !close(l.Slope, 2, 1e-12) || !close(l.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", l)
	}
	if r := RSquared(pts, l.Eval); !close(r, 1, 1e-12) {
		t.Fatalf("R² = %v", r)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]Point{{1, 1}}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLinear([]Point{{2, 1}, {2, 5}}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestFitLinearThroughOrigin(t *testing.T) {
	pts := []Point{{1, 2.1}, {2, 3.9}, {3, 6.1}}
	l, err := FitLinearThroughOrigin(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !close(l.Slope, 2, 0.05) || l.Intercept != 0 {
		t.Fatalf("fit = %+v", l)
	}
	if _, err := FitLinearThroughOrigin(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := FitLinearThroughOrigin([]Point{{0, 1}}); err == nil {
		t.Fatal("degenerate input accepted")
	}
}

func TestFitPowerLawExact(t *testing.T) {
	truth := PowerLaw{Coef: 1e-4, Exp: 0.9341}
	var pts []Point
	for _, x := range []float64{1, 4, 16, 64, 256} {
		pts = append(pts, Point{x, truth.Eval(x)})
	}
	got, err := FitPowerLaw(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !close(got.Coef, truth.Coef, 1e-9) || !close(got.Exp, truth.Exp, 1e-9) {
		t.Fatalf("fit = %+v, want %+v", got, truth)
	}
	if _, err := FitPowerLaw([]Point{{0, 1}, {1, 1}}); err == nil {
		t.Fatal("non-positive x accepted")
	}
	if _, err := FitPowerLaw([]Point{{1, 0}, {2, 1}}); err == nil {
		t.Fatal("non-positive y accepted")
	}
}

func TestFitCPUModelRecoversPaperModel(t *testing.T) {
	// Sample the published 4T model, fit, and recover the coefficients —
	// the round trip the paper's own benchmarking performed.
	var pts []Point
	for mb := 1.0; mb <= 32768; mb *= 2 {
		pts = append(pts, Point{mb, PaperCPU4T.Eval(mb)})
	}
	m, err := FitCPUModel(pts, PaperBreakMB)
	if err != nil {
		t.Fatal(err)
	}
	if !close(m.A.Exp, 0.9341, 1e-6) || !close(m.A.Coef, 1e-4, 1e-9) {
		t.Fatalf("range A fit = %+v", m.A)
	}
	if !close(m.B.Slope, 5e-5, 1e-12) || !close(m.B.Intercept, 0.0096, 1e-6) {
		t.Fatalf("range B fit = %+v", m.B)
	}
	// Predictions agree over the whole range.
	for mb := 1.0; mb <= 32768; mb *= 3 {
		if !close(m.Eval(mb), PaperCPU4T.Eval(mb), 1e-6*math.Max(1, PaperCPU4T.Eval(mb))) {
			t.Fatalf("fit diverges at %v MB", mb)
		}
	}
}

func TestFitCPUModelNeedsBothRanges(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2}, {4, 3}} // all below break
	if _, err := FitCPUModel(pts, 512); err == nil {
		t.Fatal("missing range B accepted")
	}
	pts = []Point{{1024, 1}, {2048, 2}} // all above break
	if _, err := FitCPUModel(pts, 512); err == nil {
		t.Fatal("missing range A accepted")
	}
}

func TestFitGPUModelRecoversPaperModel(t *testing.T) {
	var pts []Point
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		pts = append(pts, Point{frac, PaperGPU2SM.Eval(frac)})
	}
	m, err := FitGPUModel(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !close(m.Slope, 0.0015, 1e-9) || !close(m.Intercept, 0.013, 1e-9) {
		t.Fatalf("fit = %+v", m)
	}
}

func TestFitDictModelRecoversPaperModel(t *testing.T) {
	var pts []Point
	for _, n := range []float64{1e3, 1e4, 1e5, 1e6} {
		pts = append(pts, Point{n, PaperDict.Eval(int(n))})
	}
	m, err := FitDictModel(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !close(m.SecondsPerEntry, 0.0138e-6, 1e-15) {
		t.Fatalf("fit = %+v", m)
	}
}

// Property: FitLinear recovers arbitrary lines exactly (within fp error)
// from noise-free samples, and R² is 1.
func TestFitLinearProperty(t *testing.T) {
	f := func(slopeRaw, interRaw int16) bool {
		slope := float64(slopeRaw) / 100
		inter := float64(interRaw) / 100
		truth := Linear{Slope: slope, Intercept: inter}
		var pts []Point
		for x := 0.0; x < 10; x++ {
			pts = append(pts, Point{x, truth.Eval(x)})
		}
		got, err := FitLinear(pts)
		if err != nil {
			return false
		}
		return close(got.Slope, slope, 1e-9) && close(got.Intercept, inter, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: fitting noisy data still yields high R² and approximate
// coefficients — the regime real calibration operates in.
func TestFitNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := Linear{Slope: 0.003, Intercept: 0.0258}
	var pts []Point
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		y := truth.Eval(x) * (1 + 0.02*(rng.Float64()-0.5))
		pts = append(pts, Point{x, y})
	}
	got, err := FitLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !close(got.Slope, truth.Slope, 3e-4) || !close(got.Intercept, truth.Intercept, 3e-4) {
		t.Fatalf("noisy fit = %+v", got)
	}
	if r := RSquared(pts, got.Eval); r < 0.95 {
		t.Fatalf("R² = %v", r)
	}
}

func TestRSquaredEdgeCases(t *testing.T) {
	if RSquared(nil, func(float64) float64 { return 0 }) != 0 {
		t.Fatal("empty points should give 0")
	}
	flat := []Point{{1, 5}, {2, 5}}
	if RSquared(flat, func(float64) float64 { return 5 }) != 1 {
		t.Fatal("perfect flat fit should give 1")
	}
	if RSquared(flat, func(float64) float64 { return 6 }) != 0 {
		t.Fatal("imperfect flat fit should give 0")
	}
}
