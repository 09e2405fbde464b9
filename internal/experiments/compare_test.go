package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %g, want 4", g)
	}
	if _, err := geomean(nil); err == nil {
		t.Fatal("geomean(nil): want error")
	}
	if _, err := geomean([]float64{1, 0}); err == nil {
		t.Fatal("geomean with zero sample: want error")
	}
}

// headlineOf reads a committed record into rec and returns its headline.
func headlineOf(rec Baseline, raw string) (float64, error) {
	if err := json.Unmarshal([]byte(raw), rec); err != nil {
		return 0, err
	}
	return rec.headline()
}

func TestCompareHeadlines(t *testing.T) {
	scan := `{"results":[{"speedup":2.0},{"speedup":8.0}]}`
	if got, err := headlineOf(new(scanKernelsReport), scan); err != nil || math.Abs(got-4) > 1e-12 {
		t.Fatalf("scanHeadline = %g, %v; want 4", got, err)
	}

	ingest := `{"results":[
		{"case":"ingest batch=1000 wal=off","rows_per_sec":1000},
		{"case":"ingest batch=1000 wal=on","rows_per_sec":600},
		{"case":"ingest batch=100 wal=off","rows_per_sec":1}]}`
	if got, err := headlineOf(new(ingestReport), ingest); err != nil || math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("ingestHeadline = %g, %v; want 0.6", got, err)
	}
	if _, err := headlineOf(new(ingestReport), `{"results":[]}`); err == nil {
		t.Fatal("ingestHeadline without batch=1000 cases: want error")
	}

	// Off rows carry no speedup and must not dilute the geomean.
	fusion := `{"results":[
		{"serving":false,"fan_in":4},
		{"serving":true,"fan_in":4,"speedup_vs_off":2.0},
		{"serving":false,"fan_in":16},
		{"serving":true,"fan_in":16,"speedup_vs_off":8.0}]}`
	if got, err := headlineOf(new(fusionReport), fusion); err != nil || math.Abs(got-4) > 1e-12 {
		t.Fatalf("fusionHeadline = %g, %v; want 4", got, err)
	}
}

func TestFprintComparison(t *testing.T) {
	var b strings.Builder
	FprintComparison(&b, []ComparisonRow{
		{Experiment: "fusion", Metric: "m", Committed: 2.8, Fresh: 2.7, Ratio: 0.96, OK: true},
		{Experiment: "ingest", Metric: "m", Committed: 0.6, Fresh: 0.4, Ratio: 0.67, OK: false},
	}, 0.15)
	out := b.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "tolerance 15%") {
		t.Fatalf("unexpected output:\n%s", out)
	}

	b.Reset()
	FprintComparison(&b, nil, 0)
	if !strings.Contains(b.String(), "no committed") {
		t.Fatalf("empty-rows output missing notice:\n%s", b.String())
	}
}
