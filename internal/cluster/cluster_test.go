package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hybridolap/internal/engine"
	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

func testTable(t *testing.T, rows int, seed int64) *table.FactTable {
	t.Helper()
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// diffQueries is the differential workload: every aggregate op, both
// measures, dimension predicates at every level, a translated text
// predicate, a predicate-free scan, and grouped variants.
func diffQueries(t *testing.T, ft *table.FactTable) []*query.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var qs []*query.Query
	for i := 0; i < 10; i++ {
		qs = append(qs, modelQuery(rng, int64(i), false))
	}
	d, ok := ft.Dicts().Get("store_name")
	if !ok {
		t.Fatal("no store_name dictionary")
	}
	lit, ok := d.Decode(3)
	if !ok {
		t.Fatal("store_name code 3 missing")
	}
	qs = append(qs,
		&query.Query{Op: table.AggCount},
		&query.Query{Op: table.AggSum, Measure: 1,
			Conditions: []query.Condition{{Dim: 0, Level: 2, From: 0, To: 255}}},
		&query.Query{Op: table.AggSum, Measure: 0,
			TextConds: []query.TextCondition{{Column: "store_name", From: lit, To: lit}}},
	)
	for i := range qs {
		qs[i].ID = int64(i)
	}
	return qs
}

func diffGroupQueries(t *testing.T) []*query.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	var qs []*query.Query
	for i := 0; i < 6; i++ {
		qs = append(qs, modelQuery(rng, int64(i), true))
	}
	qs = append(qs, &query.Query{Op: table.AggCount,
		GroupBy: []query.GroupRef{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}}})
	for i := range qs {
		qs[i].ID = int64(100 + i)
	}
	return qs
}

// runAll answers every query (scalar and grouped) on the cluster.
func runAll(t *testing.T, c *Cluster, scalars, groups []*query.Query) ([]Result, [][]table.GroupRow) {
	t.Helper()
	rs := make([]Result, len(scalars))
	for i, q := range scalars {
		r, err := c.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		rs[i] = r
	}
	gs := make([][]table.GroupRow, len(groups))
	for i, q := range groups {
		r, err := c.Query(q)
		if err != nil {
			t.Fatalf("group query %d: %v", q.ID, err)
		}
		if r.Partial != nil {
			t.Fatalf("group query %d: unexpected partial answer %+v", q.ID, r.Partial)
		}
		gs[i] = r.Groups
	}
	return rs, gs
}

func sameScalar(a, b Result) bool {
	return a.Rows == b.Rows &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

func sameGroups(a, b []table.GroupRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rows != b[i].Rows ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) ||
			len(a[i].Keys) != len(b[i].Keys) {
			return false
		}
		for k := range a[i].Keys {
			if a[i].Keys[k] != b[i].Keys[k] {
				return false
			}
		}
	}
	return true
}

// TestClusterDifferential asserts the tentpole invariant: for every shard
// count and replication factor, scalar and grouped answers are
// bit-identical to the single-node (N=1) cluster on the same table, and
// every scalar answer exact against the plain engine scan. A sum and a
// grouped sum the cubes cover are answered by the holders' cube walks:
// their shard partials merge with the same bits as scan partials.
func TestClusterDifferential(t *testing.T) {
	ft := testTable(t, 20_000, 11)
	months := []query.Condition{{Dim: 0, Level: 1, From: 3, To: 20}}
	scalars := append(diffQueries(t, ft), &query.Query{ID: 50, Op: table.AggSum, Conditions: months})
	groups := append(diffGroupQueries(t), &query.Query{ID: 150, Op: table.AggSum, Conditions: months,
		GroupBy: []query.GroupRef{{Dim: 1, Level: 0}}})
	cpuPlaced := func(c *Cluster) (n int64) {
		for _, ns := range c.Stats().PerNode {
			n += ns.ToCPU
		}
		return n
	}

	ref, err := New(ft, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	refS, refG := runAll(t, ref, scalars, groups)
	if cpuPlaced(ref) < 2 {
		t.Fatalf("fixture: %d sub-queries placed on a CPU, want the two cube-answerable sums", cpuPlaced(ref))
	}

	// Exactness against the plain single-pass scan.
	for i, q := range scalars {
		qq := q.Clone()
		if qq.NeedsTranslation() {
			if _, err := query.Translate(qq, ft.Dicts()); err != nil {
				t.Fatal(err)
			}
		}
		req, empty, err := qq.ToScanRequest(ft.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if empty {
			continue
		}
		want, err := table.Scan(ft, req)
		if err != nil {
			t.Fatal(err)
		}
		if !sameScalar(refS[i], Result{Value: want.Value, Rows: want.Rows}) {
			t.Errorf("query %d (%v): {%v %d}, scan reference {%v %d}", q.ID, q.Op, refS[i].Value, refS[i].Rows, want.Value, want.Rows)
		}
	}

	for _, shards := range []int{2, 3, 4, 8} {
		for _, rf := range []int{1, 2} {
			c, err := New(ft, Config{Shards: shards, Replication: rf})
			if err != nil {
				t.Fatal(err)
			}
			gotS, gotG := runAll(t, c, scalars, groups)
			for i := range scalars {
				if !sameScalar(gotS[i], refS[i]) {
					t.Errorf("N=%d RF=%d query %d: got {%v %d}, ref {%v %d}",
						shards, rf, scalars[i].ID, gotS[i].Value, gotS[i].Rows, refS[i].Value, refS[i].Rows)
				}
			}
			for i := range groups {
				if !sameGroups(gotG[i], refG[i]) {
					t.Errorf("N=%d RF=%d group query %d: rows differ", shards, rf, groups[i].ID)
				}
			}
			st := c.Stats()
			if st.SubQueries < int64(shards*(len(scalars)+len(groups))) {
				t.Errorf("N=%d RF=%d: only %d sub-queries dispatched", shards, rf, st.SubQueries)
			}
			if n := cpuPlaced(c); n < int64(2*shards) {
				t.Errorf("N=%d RF=%d: only %d sub-queries placed on a CPU", shards, rf, n)
			}
		}
	}
}

// TestChaosClusterDifferential is the cluster leg of the chaos gate: with
// injected node crashes (fault.NodeExec) and a mid-run hard kill, answers
// from concurrent clients stay bit-identical to the fault-free
// single-node reference. Runs under -race via `make test-chaos`.
func TestChaosClusterDifferential(t *testing.T) {
	ft := testTable(t, 12_000, 23)
	scalars := diffQueries(t, ft)
	groups := diffGroupQueries(t)

	ref, err := New(ft, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	refS, refG := runAll(t, ref, scalars, groups)

	for _, seed := range []int64{1, 2, 3} {
		for _, shards := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("seed%d_n%d", seed, shards), func(t *testing.T) {
				plan := fault.NewPlan(fault.PlanConfig{
					Seed: seed,
					Points: map[fault.Point]fault.PointConfig{
						fault.NodeExec: {Rate: 0.15},
					},
				})
				c, err := New(ft, Config{Shards: shards, Replication: 2, Faults: plan, MaxRetries: 6})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.KillNode(shards - 1); err != nil {
					t.Fatal(err)
				}

				var wg sync.WaitGroup
				errCh := make(chan error, 8)
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i, q := range scalars {
							r, err := c.Query(q)
							if err != nil {
								errCh <- fmt.Errorf("query %d: %w", q.ID, err)
								return
							}
							if !sameScalar(r, refS[i]) {
								errCh <- fmt.Errorf("query %d: got {%v %d}, ref {%v %d}",
									q.ID, r.Value, r.Rows, refS[i].Value, refS[i].Rows)
								return
							}
						}
						for i, q := range groups {
							r, err := c.Query(q)
							if err != nil {
								errCh <- fmt.Errorf("group query %d: %w", q.ID, err)
								return
							}
							if !sameGroups(r.Groups, refG[i]) {
								errCh <- fmt.Errorf("group query %d: rows differ under faults", q.ID)
							}
						}
					}()
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Error(err)
				}
				if err := c.ReviveNode(shards - 1); err != nil {
					t.Fatal(err)
				}
				if r, err := c.Query(scalars[0]); err != nil || !sameScalar(r, refS[0]) {
					t.Fatalf("post-revive query: r=%+v err=%v", r, err)
				}
				st := c.Stats()
				if fired := plan.Fired(fault.NodeExec); fired > 0 && st.Failovers == 0 {
					t.Errorf("%d node faults fired but no failovers recorded", fired)
				}
			})
		}
	}
}

// TestClusterFailover pins the failover accounting: with the first
// dispatches guaranteed to fail, answers still come back correct and the
// failure/failover counters move.
func TestClusterFailover(t *testing.T) {
	ft := testTable(t, 6_000, 5)
	refC, err := New(ft, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Op: table.AggSum, Measure: 0,
		Conditions: []query.Condition{{Dim: 0, Level: 2, From: 0, To: 200}}}
	want, err := refC.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(fault.PlanConfig{
		Seed:   99,
		Points: map[fault.Point]fault.PointConfig{fault.NodeExec: {Rate: 1, Limit: 3}},
	})
	c, err := New(ft, Config{Shards: 4, Replication: 2, Faults: plan, MaxRetries: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameScalar(got, want) {
		t.Fatalf("got {%v %d}, want {%v %d}", got.Value, got.Rows, want.Value, want.Rows)
	}
	st := c.Stats()
	if st.NodeFailures != 3 || st.Failovers != 3 {
		t.Fatalf("NodeFailures=%d Failovers=%d, want 3/3", st.NodeFailures, st.Failovers)
	}
}

// TestClusterShardUnavailable asserts the coordinator refuses cleanly
// when every holder of a shard is down at RF=1.
func TestClusterShardUnavailable(t *testing.T) {
	ft := testTable(t, 4_000, 3)
	c, err := New(ft, Config{Shards: 2, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(&query.Query{Op: table.AggCount})
	if err == nil {
		t.Fatal("query answered with shard 0's only holder down")
	}
}

// TestClusterConfigValidation pins replication clamping, for a shard count
// that divides nothing in particular.
func TestClusterConfigValidation(t *testing.T) {
	ft := testTable(t, 1_000, 1)
	c, err := New(ft, Config{Shards: 3, Replication: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().Replication != 3 {
		t.Fatalf("Replication = %d, want clamped to 3", c.Config().Replication)
	}
	if c.Shards() != 3 {
		t.Fatalf("Shards = %d", c.Shards())
	}
	// A thread count the estimator has no CPU model for would price every
	// shard GPU-only without a word; New rejects it as engine.New does.
	if _, err := New(ft, Config{CPUThreads: 3}); !errors.Is(err, ErrConfig) {
		t.Fatalf("CPUThreads=3 with no 3-thread CPU model: err = %v, want ErrConfig", err)
	}
}

// TestPriceMatchesEngine: the cluster prices a shard sub-query with the
// engine's step 2, so a one-shard cluster — shard fraction 1, resident
// shard — prices every query to the same bits as engine.Estimate: a
// cube-answerable count, sum and GROUP BY (CPU offered), a text query
// (GPU-only) and a GROUP BY finer than the cubes (GPU-only on both).
func TestPriceMatchesEngine(t *testing.T) {
	ft := testTable(t, 4_000, 3)
	c, err := New(ft, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	dev, cs, err := engine.NewNode(ft, gpusim.PaperLayout(), []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(engine.Config{Table: ft, Cubes: cs, Device: dev, Sched: sched.Config{DeadlineSeconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	lit, err := ft.Dicts().Decode("store_name", 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		q     *query.Query
		cpuOK bool
	}{
		{"count", &query.Query{Op: table.AggCount,
			Conditions: []query.Condition{{Dim: 0, Level: 1, From: 2, To: 9}}}, true},
		{"text", &query.Query{Op: table.AggSum, Measure: 1,
			TextConds: []query.TextCondition{{Column: "store_name", From: lit, To: lit}}}, false},
		{"group-by", &query.Query{Op: table.AggMax,
			Conditions: []query.Condition{{Dim: 1, Level: 0, From: 0, To: 3}},
			GroupBy:    []query.GroupRef{{Dim: 0, Level: 2}}}, false},
		{"sum", &query.Query{Op: table.AggSum,
			Conditions: []query.Condition{{Dim: 0, Level: 1, From: 2, To: 9}}}, true},
		{"cube group-by", &query.Query{Op: table.AggAvg,
			Conditions: []query.Condition{{Dim: 1, Level: 0, From: 0, To: 3}},
			GroupBy:    []query.GroupRef{{Dim: 0, Level: 0}}}, true},
	}
	for _, tc := range cases {
		q := tc.q
		if _, err := query.Translate(q, ft.Dicts()); err != nil {
			t.Fatal(err)
		}
		m, empty, err := q.Member(ft.Schema())
		if err != nil || empty {
			t.Fatalf("%s: member (empty=%v): %v", tc.name, empty, err)
		}
		sq, err := c.subQueryFor(0, q, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sq.est, want) {
			t.Errorf("%s: cluster prices %+v, engine %+v", tc.name, sq.est, want)
		}
		if sq.est.CPUOK != tc.cpuOK {
			t.Errorf("%s: CPUOK = %v, want %v", tc.name, sq.est.CPUOK, tc.cpuOK)
		}
	}
}

// TestClusterModelDeterminism asserts RunModel is a pure function of
// (table, config, seed) and its rates are sane.
func TestClusterModelDeterminism(t *testing.T) {
	ft := testTable(t, 8_000, 2)
	run := func(blind bool) ModelResult {
		c, err := New(ft, Config{Shards: 4, Replication: 2, MovementBlind: blind})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.RunModel(ModelConfig{Queries: 120, Clients: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(false), run(false)
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if a.QPS <= 0 || a.DeadlineHitRate < 0 || a.DeadlineHitRate > 1 {
		t.Fatalf("implausible model result %+v", a)
	}
	blind := run(true)
	if blind.QPS <= 0 {
		t.Fatalf("implausible blind result %+v", blind)
	}
	// The blind planner ignores movement when deciding, so it moves at
	// least as many bytes as the aware one on the same workload.
	if blind.BytesMoved < a.BytesMoved {
		t.Fatalf("blind moved %d bytes, aware %d", blind.BytesMoved, a.BytesMoved)
	}
}

// TestClusterStats sanity-checks the snapshot surface olapd serialises.
func TestClusterStats(t *testing.T) {
	ft := testTable(t, 4_000, 8)
	c, err := New(ft, Config{Shards: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(&query.Query{Op: table.AggCount}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Shards != 2 || st.Replication != 2 {
		t.Fatalf("shape: %+v", st)
	}
	if st.Queries != 1 || st.SubQueries != 2 {
		t.Fatalf("counters: %+v", st)
	}
	if len(st.PerNode) != 2 {
		t.Fatalf("PerNode: %+v", st.PerNode)
	}
	for i, ns := range st.PerNode {
		if ns.Node != i || ns.Health == "" || len(ns.Shards) != 2 {
			t.Fatalf("node %d stats: %+v", i, ns)
		}
	}
}
