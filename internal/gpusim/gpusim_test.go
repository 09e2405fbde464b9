package gpusim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hybridolap/internal/table"
)

func testTable(t testing.TB, rows int) *table.FactTable {
	t.Helper()
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: rows, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func newTestDevice(t testing.TB, rows int) *Device {
	t.Helper()
	d, err := NewDevice(TeslaC2070())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadTable(testTable(t, rows)); err != nil {
		t.Fatal(err)
	}
	if err := d.Partition(PaperLayout()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDeviceValidation(t *testing.T) {
	bad := []DeviceSpec{
		{SMs: 0, GlobalMemBytes: 1},
		{SMs: 14, GlobalMemBytes: 0},
	}
	for i, spec := range bad {
		if _, err := NewDevice(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestPaperLayoutSums(t *testing.T) {
	total := 0
	for _, sms := range PaperLayout() {
		total += sms
	}
	if total != 14 {
		t.Fatalf("paper layout uses %d SMs, want 14", total)
	}
	if len(PaperLayout()) != 6 {
		t.Fatal("paper layout should have 6 partitions")
	}
}

func TestLoadTableMemoryLimit(t *testing.T) {
	spec := TeslaC2070()
	spec.GlobalMemBytes = 100 // tiny
	d, err := NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadTable(testTable(t, 1000)); err == nil {
		t.Fatal("oversized table accepted")
	}
}

func TestPartitionValidation(t *testing.T) {
	d, _ := NewDevice(TeslaC2070())
	cases := [][]int{
		{},           // empty
		{0},          // zero width
		{4, 4, 4, 4}, // 16 > 14 SMs
	}
	for i, layout := range cases {
		if err := d.Partition(layout); err == nil {
			t.Errorf("bad layout %d accepted", i)
		}
	}
	if err := d.Partition(PaperLayout()); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Partitions()); got != 6 {
		t.Fatalf("partitions = %d", got)
	}
	for i, p := range d.Partitions() {
		if p.ID() != i {
			t.Fatalf("partition %d has ID %d", i, p.ID())
		}
	}
	if d.Partitions()[0].SMs() != 1 || d.Partitions()[5].SMs() != 4 {
		t.Fatal("layout widths wrong")
	}
}

func TestExecuteMatchesSequentialScan(t *testing.T) {
	d := newTestDevice(t, 20000)
	req := table.ScanRequest{
		Predicates: []table.RangePredicate{
			{Dim: 0, Level: 1, From: 0, To: 23},
			{Dim: 2, Level: 0, From: 2, To: 7},
		},
		Measure: 0, Op: table.AggSum,
	}
	want, err := table.Scan(d.Table(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Partitions() {
		got, err := p.Execute(d.Resident(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows || math.Abs(got.Value-want.Value) > 1e-6 {
			t.Fatalf("partition %d (%d SMs): got (%v,%d), want (%v,%d)",
				p.ID(), p.SMs(), got.Value, got.Rows, want.Value, want.Rows)
		}
	}
}

func TestExecuteAllOps(t *testing.T) {
	d := newTestDevice(t, 5000)
	for _, op := range []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg} {
		req := table.ScanRequest{
			Predicates: []table.RangePredicate{{Dim: 1, Level: 0, From: 0, To: 3}},
			Measure:    1, Op: op,
		}
		want, err := table.Scan(d.Table(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Partitions()[4].Execute(d.Resident(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows || math.Abs(got.Value-want.Value) > 1e-6 {
			t.Fatalf("%v: got (%v,%d), want (%v,%d)", op, got.Value, got.Rows, want.Value, want.Rows)
		}
	}
}

func TestExecuteTinyTable(t *testing.T) {
	// A table shorter than one block is one short unit.
	d, _ := NewDevice(TeslaC2070())
	if err := d.LoadTable(testTable(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Partition([]int{4}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Partitions()[0].Execute(d.Resident(), table.ScanRequest{Op: table.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 1 {
		t.Fatalf("rows = %d", got.Rows)
	}
	if d.Partitions()[0].Completed() != 1 {
		t.Fatal("Completed not incremented")
	}
}

func TestExecuteWithoutTableFails(t *testing.T) {
	d, _ := NewDevice(TeslaC2070())
	if err := d.Partition([]int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Partitions()[0].Execute(d.Resident(), table.ScanRequest{Op: table.AggCount}); err == nil {
		t.Fatal("execute without table accepted")
	}
}

func TestExecutePropagatesScanErrors(t *testing.T) {
	d := newTestDevice(t, 1000)
	req := table.ScanRequest{Measure: 99, Op: table.AggSum}
	if _, err := d.Partitions()[0].Execute(d.Resident(), req); err == nil {
		t.Fatal("bad request accepted")
	}
}

func TestConcurrentKernelExecution(t *testing.T) {
	// All six partitions execute concurrently against the shared table and
	// agree with each other — Fermi concurrent kernels, and a race-detector
	// workout.
	d := newTestDevice(t, 30000)
	req := table.ScanRequest{
		Predicates: []table.RangePredicate{{Dim: 0, Level: 0, From: 0, To: 1}},
		Measure:    0, Op: table.AggSum,
	}
	want, _ := table.Scan(d.Table(), req)
	var wg sync.WaitGroup
	results := make([]table.ScanResult, 6)
	errs := make([]error, 6)
	for i, p := range d.Partitions() {
		wg.Add(1)
		go func(i int, p *Partition) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				results[i], errs[i] = p.Execute(d.Resident(), req)
				if errs[i] != nil {
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Rows != want.Rows || math.Abs(results[i].Value-want.Value) > 1e-6 {
			t.Fatalf("partition %d diverged", i)
		}
		if d.Partitions()[i].Completed() != 5 {
			t.Fatalf("partition %d completed %d kernels, want 5", i, d.Partitions()[i].Completed())
		}
	}
}

// BenchmarkExecute puts the cost of the fold grid on record per partition
// width: a scalar sum, a GROUP BY with 4 groups and one with up to 32 768
// (one hash table per block, merged in block order), and a fused kernel
// whose first member is a cell-granted anchor, at the benchmark's 1M rows
// (31 blocks). EXPERIMENTS.md "One fold grid" has parent vs change.
func BenchmarkExecute(b *testing.B) {
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: 1_000_000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	d, _ := NewDevice(TeslaC2070())
	if err := d.LoadTable(ft); err != nil {
		b.Fatal(err)
	}
	if err := d.Partition([]int{1, 2, 4}); err != nil {
		b.Fatal(err)
	}
	sum := table.ScanRequest{
		Predicates: []table.RangePredicate{{Dim: 0, Level: 1, From: 0, To: 11}},
		Measure:    0, Op: table.AggSum,
	}
	group := func(by ...table.GroupCol) table.GroupScanRequest {
		return table.GroupScanRequest{ScanRequest: sum, GroupBy: by}
	}
	family := func(op table.AggOp, dayTo, stateTo uint32) table.ScanRequest {
		return table.ScanRequest{Op: op, Measure: 0, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 2, From: 0, To: dayTo}, {Dim: 1, Level: 2, From: 0, To: stateTo},
		}}
	}
	fused := []table.ScanRequest{family(table.AggCount, 255, 127), family(table.AggSum, 99, 63), family(table.AggMax, 200, 20)}
	shapes := []struct {
		name string
		run  func(p *Partition) error
	}{
		{"sum", func(p *Partition) error { _, err := p.Execute(d.Resident(), sum); return err }},
		{"groupby_region", func(p *Partition) error {
			_, err := p.ExecuteGroup(d.Resident(), group(table.GroupCol{Dim: 1, Level: 0}))
			return err
		}},
		{"groupby_day_state", func(p *Partition) error {
			_, err := p.ExecuteGroup(d.Resident(), group(table.GroupCol{Dim: 0, Level: 2}, table.GroupCol{Dim: 1, Level: 2}))
			return err
		}},
		{"fused_anchor", func(p *Partition) error {
			_, err := p.ExecuteFused(d.Resident(), fused, []bool{true, false, false})
			return err
		}},
	}
	for _, p := range d.Partitions() {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%dSM/%s", p.SMs(), sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := sh.run(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestExecuteGroupMatchesSequential(t *testing.T) {
	d := newTestDevice(t, 15000)
	req := table.GroupScanRequest{
		ScanRequest: table.ScanRequest{
			Predicates: []table.RangePredicate{{Dim: 0, Level: 0, From: 0, To: 5}},
			Measure:    0, Op: table.AggSum,
		},
		GroupBy: []table.GroupCol{{Dim: 1, Level: 0}},
	}
	want, err := table.GroupScan(d.Table(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Partitions() {
		got, err := p.ExecuteGroup(d.Resident(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("partition %d: %d groups, want %d", p.ID(), len(got), len(want))
		}
		for i := range want {
			if got[i].Rows != want[i].Rows || math.Abs(got[i].Value-want[i].Value) > 1e-6 {
				t.Fatalf("partition %d group %d: %+v vs %+v", p.ID(), i, got[i], want[i])
			}
		}
	}
}

func TestExecuteGroupConcurrent(t *testing.T) {
	d := newTestDevice(t, 20000)
	req := table.GroupScanRequest{
		ScanRequest: table.ScanRequest{Measure: 0, Op: table.AggCount},
		GroupBy:     []table.GroupCol{{Dim: 2, Level: 0}},
	}
	want, _ := table.GroupScan(d.Table(), req)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i, p := range d.Partitions() {
		wg.Add(1)
		go func(i int, p *Partition) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got, err := p.ExecuteGroup(d.Resident(), req)
				if err != nil {
					errs[i] = err
					return
				}
				if len(got) != len(want) {
					errs[i] = fmt.Errorf("partition %d: %d groups, want %d", i, len(got), len(want))
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecuteGroupTinyTableAndErrors(t *testing.T) {
	d, _ := NewDevice(TeslaC2070())
	if err := d.LoadTable(testTable(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Partition([]int{4}); err != nil {
		t.Fatal(err)
	}
	rows, err := d.Partitions()[0].ExecuteGroup(d.Resident(), table.GroupScanRequest{
		ScanRequest: table.ScanRequest{Op: table.AggCount},
		GroupBy:     []table.GroupCol{{Dim: 0, Level: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Rows != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	// No group columns is an error.
	if _, err := d.Partitions()[0].ExecuteGroup(d.Resident(), table.GroupScanRequest{
		ScanRequest: table.ScanRequest{Op: table.AggCount},
	}); err == nil {
		t.Fatal("empty group-by accepted")
	}
	// No table loaded.
	d2, _ := NewDevice(TeslaC2070())
	if err := d2.Partition([]int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Partitions()[0].ExecuteGroup(d2.Resident(), table.GroupScanRequest{
		ScanRequest: table.ScanRequest{Op: table.AggCount},
		GroupBy:     []table.GroupCol{{Dim: 0, Level: 0}},
	}); err == nil {
		t.Fatal("missing table accepted")
	}
}
