package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func opts() Options { return Options{Quick: true, Seed: 1} }

// parse reads the measured q/s cell of row i.
func rate(t *testing.T, tbl *Table, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[i][1], 64)
	if err != nil {
		t.Fatalf("row %d cell %q: %v", i, tbl.Rows[i][1], err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	r1, r4, r8 := rate(t, tbl, 0), rate(t, tbl, 1), rate(t, tbl, 2)
	// The paper's ordering: parallel >> sequential, 8T > 4T.
	if !(r8 > r4 && r4 > r1) {
		t.Fatalf("thread ordering violated: %v %v %v", r1, r4, r8)
	}
	if r4/r1 < 4 {
		t.Fatalf("4T speedup %v, want >= 4x over sequential (paper: 7.25x)", r4/r1)
	}
	// Close to the paper's absolute rates (same functions, same workload
	// shape): within 25%.
	for i, want := range []float64{12, 87, 110} {
		got := rate(t, tbl, i)
		if got < want*0.75 || got > want*1.25 {
			t.Fatalf("row %d: %v q/s, paper %v (>25%% off)", i, got, want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(opts())
	if err != nil {
		t.Fatal(err)
	}
	r4, r8 := rate(t, tbl, 0), rate(t, tbl, 1)
	if !(r8 > r4) {
		t.Fatalf("8T (%v) should beat 4T (%v)", r8, r4)
	}
	// Adding the 32GB cube must slash the rate versus Table 1 (~90 q/s).
	if r4 > 30 || r8 > 30 {
		t.Fatalf("rates too high for the 32GB set: %v %v", r4, r8)
	}
	for i, want := range []float64{9, 11} {
		got := rate(t, tbl, i)
		if got < want*0.7 || got > want*1.3 {
			t.Fatalf("row %d: %v q/s, paper %v (>30%% off)", i, got, want)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tbl, err := Table3(opts())
	if err != nil {
		t.Fatal(err)
	}
	h1, h4, h8, gpu := rate(t, tbl, 0), rate(t, tbl, 1), rate(t, tbl, 2), rate(t, tbl, 3)
	if !(h8 >= h4 && h4 >= h1) {
		t.Fatalf("thread ordering violated: %v %v %v", h1, h4, h8)
	}
	if h8 <= gpu {
		t.Fatalf("hybrid 8T (%v) should beat GPU-only (%v)", h8, gpu)
	}
}

func TestTranslationOverheadShape(t *testing.T) {
	tbl, err := TranslationOverhead(opts())
	if err != nil {
		t.Fatal(err)
	}
	without := rate(t, tbl, 0)
	prev := without
	for i := 1; i < len(tbl.Rows); i++ {
		with := rate(t, tbl, i)
		if with > without {
			t.Fatalf("translation cannot speed the system up: %v > %v", with, without)
		}
		if with > prev+1e-9 {
			t.Fatalf("slowdown must grow with D_L: row %d %v > %v", i, with, prev)
		}
		prev = with
	}
}

func TestFig9Shape(t *testing.T) {
	tbl, err := Fig9(opts())
	if err != nil {
		t.Fatal(err)
	}
	// Per-lookup time strictly grows with dictionary size.
	var prev float64
	for i, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && v <= prev {
			t.Fatalf("dict lookup time not increasing at row %d: %v <= %v", i, v, prev)
		}
		prev = v
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("model ablations in -short mode")
	}
	for _, fn := range []Runner{AblationPlacement, AblationTranslationPartition, AblationGlobalDict} {
		tbl, err := fn(opts())
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) < 2 {
			t.Fatalf("%s: rows = %d", tbl.ID, len(tbl.Rows))
		}
	}
}

func TestAblationGlobalDictHurts(t *testing.T) {
	tbl, err := AblationGlobalDict(opts())
	if err != nil {
		t.Fatal(err)
	}
	per, global := rate(t, tbl, 0), rate(t, tbl, 1)
	if global >= per {
		t.Fatalf("global dictionary (%v) should not beat per-column (%v)", global, per)
	}
}

func TestRegistryAndIDs(t *testing.T) {
	ids := IDs()
	reg := Registry()
	if len(ids) != len(reg) {
		t.Fatalf("IDs (%d) and Registry (%d) disagree", len(ids), len(reg))
	}
	if ids[0] != "table1" {
		t.Fatalf("first experiment = %q", ids[0])
	}
	if _, err := Run("nope", opts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"wide-cell", "3"}},
		Notes:   []string{"hello"},
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "long-column", "wide-cell", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLevelScan(t *testing.T) {
	sys, err := cpuRateSystem(8, []int{0}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Config().Table.Schema()
	q := levelScan(s, 1, 0, 1.0, true)
	if err := q.Validate(s); err != nil {
		t.Fatal(err)
	}
	if q.Resolution() != 0 {
		t.Fatalf("resolution = %d", q.Resolution())
	}
	// Trim shortens dim 0 by one coordinate.
	if q.Conditions[0].To != uint32(s.Dimensions[0].Levels[0].Cardinality-2) {
		t.Fatalf("trim missing: %+v", q.Conditions[0])
	}
	// Fractional scans stay in range at every level.
	for lvl := 0; lvl <= 3; lvl++ {
		q := levelScan(s, 1, lvl, 0.645, false)
		if err := q.Validate(s); err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
	}
}

func TestTextQueryHelper(t *testing.T) {
	sys, err := hybridSystem(8, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft := sys.Config().Table
	q, err := textQuery(ft, 1, "store_name", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(ft.Schema()); err != nil {
		t.Fatal(err)
	}
	if !q.GPUOnly() || !q.NeedsTranslation() {
		t.Fatal("text query should be GPU-only and untranslated")
	}
	if _, err := textQuery(ft, 1, "ghost", 0); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestFigureExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps in -short mode")
	}
	for _, id := range []string{"fig3", "fig4", "fig5", "fig8", "translation-algos"} {
		tbl, err := Run(id, opts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		var sb strings.Builder
		tbl.Fprint(&sb)
		if !strings.Contains(sb.String(), tbl.ID) {
			t.Fatalf("%s output missing ID", id)
		}
	}
}

func TestBatchHeuristicsShape(t *testing.T) {
	tbl, err := BatchHeuristics(opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 { // fig-10, min-min, max-min, sufferage
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Min-min should not lose on mean completion to the on-line algorithm
	// (it has global knowledge).
	parseCell := func(r, c int) float64 {
		v, err := strconv.ParseFloat(tbl.Rows[r][c], 64)
		if err != nil {
			t.Fatalf("cell (%d,%d): %v", r, c, err)
		}
		return v
	}
	online := parseCell(0, 2)
	minmin := parseCell(1, 2)
	if minmin > online*1.05 {
		t.Fatalf("min-min mean completion %v worse than on-line %v", minmin, online)
	}
}

func TestScanKernelsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel timing sweep in -short mode")
	}
	tbl, err := ScanKernels(opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	report := tbl.Baseline.(*scanKernelsReport)
	if len(report.Results) != len(tbl.Rows) {
		t.Fatalf("report has %d results, table %d rows", len(report.Results), len(tbl.Rows))
	}
	for _, r := range report.Results {
		if r.ReferenceNs <= 0 || r.VectorizedNs <= 0 {
			t.Fatalf("case %q has non-positive timings: %+v", r.Case, r)
		}
	}
}

func TestRemainingAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("model ablations in -short mode")
	}
	for _, id := range []string{"ablation-feedback", "ablation-layout"} {
		tbl, err := Run(id, opts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) < 2 {
			t.Fatalf("%s rows = %d", id, len(tbl.Rows))
		}
	}
}
