package engine

import (
	"math"
	"slices"
	"testing"

	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

func groupRowsEqual(t *testing.T, got, want []table.GroupRow, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g.Keys) != len(w.Keys) {
			t.Fatalf("%s group %d: key arity %d vs %d", label, i, len(g.Keys), len(w.Keys))
		}
		for k := range w.Keys {
			if g.Keys[k] != w.Keys[k] {
				t.Fatalf("%s group %d: keys %v vs %v", label, i, g.Keys, w.Keys)
			}
		}
		if g.Rows != w.Rows || math.Abs(g.Value-w.Value) > 1e-6*math.Max(1, math.Abs(w.Value)) {
			t.Fatalf("%s group %d: (%v,%d) vs (%v,%d)", label, i, g.Value, g.Rows, w.Value, w.Rows)
		}
	}
}

func TestGroupedCPUAndGPUAgree(t *testing.T) {
	s := testSystem(t, nil)
	q := &query.Query{
		ID: 1,
		Conditions: []query.Condition{
			{Dim: 0, Level: 1, From: 0, To: 23},
		},
		GroupBy: []query.GroupRef{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}},
		Measure: 0, Op: table.AggSum,
	}
	if err := q.Validate(s.Config().Table.Schema()); err != nil {
		t.Fatal(err)
	}
	ref, err := s.ReferenceGroups(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference produced no groups")
	}
	cpu, err := cpuGroups(s, q)
	if err != nil {
		t.Fatal(err)
	}
	groupRowsEqual(t, cpu, ref, "cpu")
	for p := 0; p < 6; p++ {
		gpu, err := gpuGroups(s, q.Clone(), p)
		if err != nil {
			t.Fatal(err)
		}
		groupRowsEqual(t, gpu, ref, "gpu")
	}
}

func TestGroupedAllOpsAgree(t *testing.T) {
	s := testSystem(t, nil)
	for _, op := range []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg} {
		q := &query.Query{
			Conditions: []query.Condition{{Dim: 1, Level: 0, From: 0, To: 2}},
			GroupBy:    []query.GroupRef{{Dim: 2, Level: 0}},
			Measure:    0, Op: op,
		}
		ref, err := s.ReferenceGroups(q)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := cpuGroups(s, q)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		groupRowsEqual(t, cpu, ref, op.String()+"/cpu")
		gpu, err := gpuGroups(s, q.Clone(), 4)
		if err != nil {
			t.Fatal(err)
		}
		groupRowsEqual(t, gpu, ref, op.String()+"/gpu")
	}
}

func TestGroupedTextGPUOnly(t *testing.T) {
	s := testSystem(t, nil)
	q := &query.Query{
		GroupBy: []query.GroupRef{{Text: true, Column: "store_name"}},
		Measure: 0, Op: table.AggCount,
	}
	if !q.GPUOnly() {
		t.Fatal("text grouping should be GPU-only")
	}
	if _, err := cpuGroups(s, q); err == nil {
		t.Fatal("CPU answered a text-grouped query")
	}
	ref, err := s.ReferenceGroups(q)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := gpuGroups(s, q.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	groupRowsEqual(t, gpu, ref, "text-group")
	var total int64
	for _, r := range gpu {
		total += r.Rows
	}
	if total != int64(s.Config().Table.Rows()) {
		t.Fatalf("rows total %d, want %d", total, s.Config().Table.Rows())
	}
}

func TestGroupedWithTranslatedPredicate(t *testing.T) {
	s := testSystem(t, nil)
	d, _ := s.Config().Table.Dicts().Get("store_name")
	lit, _ := d.Decode(3)
	q := &query.Query{
		TextConds: []query.TextCondition{{Column: "store_name", From: lit, To: lit}},
		GroupBy:   []query.GroupRef{{Dim: 0, Level: 0}},
		Measure:   0, Op: table.AggSum,
	}
	ref, err := s.ReferenceGroups(q)
	if err != nil {
		t.Fatal(err)
	}
	qq := q.Clone()
	if _, err := query.Translate(qq, s.Config().Table.Dicts()); err != nil {
		t.Fatal(err)
	}
	gpu, err := gpuGroups(s, qq, 2)
	if err != nil {
		t.Fatal(err)
	}
	groupRowsEqual(t, gpu, ref, "translated-group")
}

func TestRunGroupedSchedules(t *testing.T) {
	s := testSystem(t, nil)
	// A cube-able grouped query routes to CPU (tiny sub-cube) and matches
	// the reference.
	q := &query.Query{
		Conditions: []query.Condition{{Dim: 0, Level: 0, From: 0, To: 3}},
		GroupBy:    []query.GroupRef{{Dim: 0, Level: 0}},
		Measure:    0, Op: table.AggSum,
	}
	out, err := s.Serve(q)
	if err != nil {
		t.Fatal(err)
	}
	if queue := out.Queue.String(); queue != "cpu" {
		t.Fatalf("queue = %s, want cpu", queue)
	}
	ref, _ := s.ReferenceGroups(q)
	groupRowsEqual(t, out.Groups, ref, "scheduled")

	// A text-grouped query routes to a GPU partition.
	qt := &query.Query{
		GroupBy: []query.GroupRef{{Text: true, Column: "customer_city"}},
		Measure: 0, Op: table.AggCount,
	}
	out, err = s.Serve(qt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Queue.String() == "cpu" {
		t.Fatal("text-grouped query scheduled to CPU")
	}
	// The caller's query must stay untranslated.
	if qt.TextConds != nil {
		t.Fatal("unexpected text conds")
	}
}

func TestGroupedEstimateIncludesGroupColumns(t *testing.T) {
	s := testSystem(t, nil)
	base := &query.Query{
		Conditions: []query.Condition{{Dim: 0, Level: 0, From: 0, To: 3}},
		Measure:    0, Op: table.AggSum,
	}
	grouped := base.Clone()
	grouped.GroupBy = []query.GroupRef{{Dim: 1, Level: 0}, {Dim: 2, Level: 0}}
	e1, err := s.Estimate(base)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Estimate(grouped)
	if err != nil {
		t.Fatal(err)
	}
	// Two more columns accessed -> strictly larger GPU estimates (eq. 12).
	if e2.GPUSeconds[0] <= e1.GPUSeconds[0] {
		t.Fatalf("grouped GPU estimate %v not above scalar %v", e2.GPUSeconds[0], e1.GPUSeconds[0])
	}
}

func TestGroupedEstimatePicksFineCube(t *testing.T) {
	// Conditions at level 0 but grouping at level 2: only a level>=2 cube
	// can answer, and the setup has cubes only at 0 and 1 -> not CPUOK.
	s := testSystem(t, nil)
	q := &query.Query{
		Conditions: []query.Condition{{Dim: 0, Level: 0, From: 0, To: 3}},
		GroupBy:    []query.GroupRef{{Dim: 0, Level: 2}},
		Measure:    0, Op: table.AggSum,
	}
	est, err := s.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if est.CPUOK {
		t.Fatal("level-2 grouping should not be CPU-answerable with cubes {0,1}")
	}
	if _, err := cpuGroups(s, q); err == nil {
		t.Fatal("the CPU should fail for too-fine grouping")
	}
}

// cpuGroups answers a grouped query by a cube walk at the current epoch.
func cpuGroups(s *System, q *query.Query) ([]table.GroupRow, error) {
	a, err := s.cpuAnswer(q, s.pin())
	return a.Groups, err
}

// gpuGroups answers a (translated) grouped query on one GPU partition at
// the current epoch.
func gpuGroups(s *System, q *query.Query, partition int) ([]table.GroupRow, error) {
	a, err := s.gpuAnswer(q, partition, s.pin())
	return a.Groups, err
}

// groupRowsBits is groupRowsEqual without a tolerance: same keys, same
// row counts, same value bits.
func groupRowsBits(t *testing.T, got, want []table.GroupRow, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !slices.Equal(g.Keys, w.Keys) || g.Rows != w.Rows ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s group %d: %v (%v, %d) vs %v (%v, %d)",
				label, i, g.Keys, g.Value, g.Rows, w.Keys, w.Value, w.Rows)
		}
	}
}

// TestServeGroupedMatchesReference takes grouped queries through Serve:
// on the CPU, on a GPU partition (text grouping), with a predicate that
// needs translation and at a live epoch after ingest, each answer is the
// sequential reference scan's, bit for bit (max on the CPU selects stored
// values; a GPU scan of fewer than BlockRows rows is one row-order fold).
// Grouped queries neither store cache entries nor join fusion windows.
func TestServeGroupedMatchesReference(t *testing.T) {
	s, err := Setup(SetupSpec{Rows: 5000, Seed: 1, Live: true, Fusion: true, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Live().Close(); err != nil {
			t.Errorf("closing live store: %v", err)
		}
	})
	store, err := s.Dicts().Decode("store_name", 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := s.Config().Table.Schema()
	parse := func(sql string) *query.Query {
		q, err := query.Parse(sql, sc)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	cases := []struct {
		name   string
		q      *query.Query
		kind   sched.QueueKind
		ingest bool // ingest a batch first: the answer is a later epoch's
	}{
		{"cpu", parse("SELECT max(sales) WHERE time.year BETWEEN 0 AND 3 GROUP BY time.year"), sched.QueueCPU, false},
		{"gpu text-grouped", parse("SELECT sum(sales) GROUP BY customer_city"), sched.QueueGPU, false},
		{"translated predicate", parse("SELECT avg(sales) WHERE store_name = '" + store + "' GROUP BY geo.region"), sched.QueueGPU, false},
		{"live epoch", parse("SELECT sum(sales) GROUP BY store_name"), sched.QueueGPU, true},
	}
	stores := s.CacheStats().Stores
	before := s.Scheduler().Stats()
	for _, c := range cases {
		if c.ingest {
			rows := make([]table.Row, 10)
			for i := range rows {
				rows[i] = liveRow(i)
			}
			if _, err := s.Ingest(&ingest.Batch{Rows: rows}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := s.Serve(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.Queue.Kind != c.kind || out.Attempts != 1 || out.Fused || out.CacheHit {
			t.Fatalf("%s: outcome %+v, want one attempt on a %v queue", c.name, out, c.kind)
		}
		if c.q.TextConds != nil && c.q.TextConds[0].Translated {
			t.Fatalf("%s: Serve translated the caller's query", c.name)
		}
		ref, err := s.ReferenceGroups(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 {
			t.Fatalf("%s: the reference has no groups; the comparison is vacuous", c.name)
		}
		groupRowsBits(t, out.Groups, ref, c.name)
		if c.ingest {
			var n int64
			for _, g := range out.Groups {
				n += g.Rows
			}
			if n != 5010 {
				t.Fatalf("%s: groups cover %d rows, want the base 5000 + 10 ingested", c.name, n)
			}
		}
	}
	if got := s.CacheStats().Stores; got != stores {
		t.Fatalf("grouped serves stored %d cache entries", got-stores)
	}
	after := s.Scheduler().Stats()
	if after.FusedJobs != before.FusedJobs || after.FusedMembers != before.FusedMembers {
		t.Fatalf("grouped serves joined fusion windows: %+v -> %+v", before, after)
	}
	if after.Submitted-before.Submitted != int64(len(cases)) {
		t.Fatalf("%d bookings for %d grouped serves", after.Submitted-before.Submitted, len(cases))
	}
}
