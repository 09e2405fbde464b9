package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hybridolap/internal/fault"
	"hybridolap/internal/query"
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
// bit-identical to the single-node (N=1) cluster on the same table —
// count/min/max additionally exact against the plain engine scan.
func TestClusterDifferential(t *testing.T) {
	ft := testTable(t, 20_000, 11)
	scalars := diffQueries(t, ft)
	groups := diffGroupQueries(t)

	ref, err := New(ft, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	refS, refG := runAll(t, ref, scalars, groups)

	// Exactness against the plain single-pass scan for the
	// fold-order-insensitive ops (and row counts for every op).
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
		if refS[i].Rows != want.Rows {
			t.Errorf("query %d: rows %d, scan reference %d", q.ID, refS[i].Rows, want.Rows)
		}
		switch q.Op {
		case table.AggCount, table.AggMin, table.AggMax:
			if math.Float64bits(refS[i].Value) != math.Float64bits(want.Value) {
				t.Errorf("query %d (%v): value %v, scan reference %v", q.ID, q.Op, refS[i].Value, want.Value)
			}
		}
	}

	for _, shards := range []int{2, 4, 8} {
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

// TestClusterConfigValidation pins the chunk-grid divisibility rule and
// replication clamping.
func TestClusterConfigValidation(t *testing.T) {
	ft := testTable(t, 1_000, 1)
	if _, err := New(ft, Config{Shards: 3}); err == nil {
		t.Fatal("Chunks=64 with Shards=3 accepted")
	}
	c, err := New(ft, Config{Shards: 3, Chunks: 12, Replication: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().Replication != 3 {
		t.Fatalf("Replication = %d, want clamped to 3", c.Config().Replication)
	}
	if c.Shards() != 3 {
		t.Fatalf("Shards = %d", c.Shards())
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
	if st.Shards != 2 || st.Replication != 2 || st.Chunks != DefaultChunks {
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
