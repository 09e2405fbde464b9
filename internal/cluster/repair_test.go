package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// TestChaosRepairDifferential is the self-healing acceptance gate: a node
// is permanently lost while concurrent clients query and the auto-repair
// controller re-replicates its shards through injected link faults. Every
// completed full answer — before the loss, racing the repair, and after
// it — must be bit-identical to the fault-free single-node reference, and
// once the controller quiesces every shard is back at the replication
// factor. Runs under -race via `make test-chaos`.
func TestChaosRepairDifferential(t *testing.T) {
	ft := testTable(t, 12_000, 31)
	scalars := diffQueries(t, ft)
	groups := diffGroupQueries(t)

	ref, err := New(ft, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	refS, refG := runAll(t, ref, scalars, groups)

	check := func(t *testing.T, c *Cluster, when string) {
		t.Helper()
		gotS, gotG := runAll(t, c, scalars, groups)
		for i := range scalars {
			if !sameScalar(gotS[i], refS[i]) {
				t.Errorf("%s: query %d: got {%v %d}, ref {%v %d}",
					when, scalars[i].ID, gotS[i].Value, gotS[i].Rows, refS[i].Value, refS[i].Rows)
			}
		}
		for i := range groups {
			if !sameGroups(gotG[i], refG[i]) {
				t.Errorf("%s: group query %d: rows differ", when, groups[i].ID)
			}
		}
	}

	for _, seed := range []int64{1, 2} {
		for _, shards := range []int{4, 8} {
			t.Run(fmt.Sprintf("seed%d_n%d", seed, shards), func(t *testing.T) {
				plan := fault.NewPlan(fault.PlanConfig{
					Seed: seed,
					Points: map[fault.Point]fault.PointConfig{
						fault.LinkTransfer: {Rate: 0.3},
					},
				})
				c, err := New(ft, Config{
					Shards: shards, Replication: 2, Faults: plan,
					AutoRepair: true, RepairSeed: seed, MaxRetries: 6,
				})
				if err != nil {
					t.Fatal(err)
				}
				check(t, c, "before loss")

				// Node 0 is permanently lost: its two replicas (shard 0
				// primary, shard N-1 secondary) are gone and auto-repair
				// kicks in the background.
				if err := c.DeclareDead(0); err != nil {
					t.Fatal(err)
				}

				// Concurrent clients race the repair controller. Every
				// shard still has one live holder, so answers stay FULL and
				// must stay exact.
				var wg sync.WaitGroup
				errCh := make(chan error, 8)
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i, q := range scalars {
							r, err := c.Query(q)
							if err != nil {
								errCh <- fmt.Errorf("query %d during repair: %w", q.ID, err)
								return
							}
							if !sameScalar(r, refS[i]) {
								errCh <- fmt.Errorf("query %d during repair: got {%v %d}, ref {%v %d}",
									q.ID, r.Value, r.Rows, refS[i].Value, refS[i].Rows)
								return
							}
						}
						for i, q := range groups {
							r, err := c.Query(q)
							if err != nil {
								errCh <- fmt.Errorf("group query %d during repair: %w", q.ID, err)
								return
							}
							if r.Partial != nil {
								errCh <- fmt.Errorf("group query %d: unexpected partial %+v", q.ID, r.Partial)
								return
							}
							if !sameGroups(r.Groups, refG[i]) {
								errCh <- fmt.Errorf("group query %d: rows differ during repair", q.ID)
							}
						}
					}()
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Error(err)
				}

				// Quiesce the controller, then every shard must be back at
				// RF with the counters telling the story: one node evicted,
				// both of its shards re-replicated exactly once.
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				if ur := c.UnderReplicated(); len(ur) != 0 {
					t.Fatalf("under-replicated after repair quiesced: %v", ur)
				}
				st := c.Stats()
				if st.UnderReplicatedShards != 0 {
					t.Fatalf("UnderReplicatedShards = %d after repair", st.UnderReplicatedShards)
				}
				if st.NodesEvicted != 1 || st.RepairsCompleted != 2 {
					t.Fatalf("NodesEvicted=%d RepairsCompleted=%d, want 1/2", st.NodesEvicted, st.RepairsCompleted)
				}
				if st.RepairBytesMoved <= 0 || st.RepairSeconds <= 0 {
					t.Fatalf("repair moved %d bytes in %v s", st.RepairBytesMoved, st.RepairSeconds)
				}
				check(t, c, "after repair")

				// The promoted replicas must actually serve: kill an
				// ORIGINAL holder of a repaired shard, so the new replica is
				// the only live holder left for it.
				if err := c.KillNode(1); err != nil {
					t.Fatal(err)
				}
				check(t, c, "serving from repaired replica")
				if err := c.ReviveNode(1); err != nil {
					t.Fatal(err)
				}

				// The dead node rejoins empty and the cluster still answers
				// exactly.
				if err := c.ReviveNode(0); err != nil {
					t.Fatal(err)
				}
				check(t, c, "after revive")
			})
		}
	}
}

// TestClusterPartialAnswer pins the degraded-read contract: with
// AllowPartial, losing a shard's only holder yields an answer whose
// Completeness mask is EXACTLY the rows merged — total minus the
// missing shard's rows — and whose row count is exactly the live
// shards' rows. Without AllowPartial the same loss is a hard
// ErrShardUnavailable.
func TestClusterPartialAnswer(t *testing.T) {
	ft := testTable(t, 8_000, 13)
	c, err := New(ft, Config{Shards: 4, Replication: 1, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	wantRows := int64(ft.Rows() - c.shardTables[2].Rows())

	r, err := c.Query(&query.Query{Op: table.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if r.Partial == nil {
		t.Fatal("answer with a dead shard carried no completeness mask")
	}
	if int64(r.Partial.RowsAnswered) != wantRows || r.Partial.RowsTotal != ft.Rows() {
		t.Fatalf("mask %d/%d rows, want %d/%d",
			r.Partial.RowsAnswered, r.Partial.RowsTotal, wantRows, ft.Rows())
	}
	if len(r.Partial.MissingShards) != 1 || r.Partial.MissingShards[0] != 2 {
		t.Fatalf("MissingShards = %v, want [2]", r.Partial.MissingShards)
	}
	if r.Rows != wantRows || int64(r.Value) != wantRows {
		t.Fatalf("partial count = {%v %d}, want exactly the live shards' %d rows", r.Value, r.Rows, wantRows)
	}

	// Grouped path: same mask, and the group row counts sum to the same
	// live-shard total.
	gr, err := c.Query(&query.Query{Op: table.AggCount,
		GroupBy: []query.GroupRef{{Dim: 0, Level: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	rows, cp := gr.Groups, gr.Partial
	if cp == nil || int64(cp.RowsAnswered) != wantRows || len(cp.MissingShards) != 1 || cp.MissingShards[0] != 2 {
		t.Fatalf("grouped mask = %+v, want %d/%d rows missing [2]", cp, wantRows, ft.Rows())
	}
	var sum int64
	for _, g := range rows {
		sum += g.Rows
	}
	if sum != wantRows {
		t.Fatalf("grouped partial rows sum to %d, want %d", sum, wantRows)
	}
	if st := c.Stats(); st.PartialAnswers != 2 {
		t.Fatalf("PartialAnswers = %d, want 2", st.PartialAnswers)
	}

	// A fully-served query carries no mask even in partial mode.
	if err := c.ReviveNode(2); err != nil {
		t.Fatal(err)
	}
	if r, err := c.Query(&query.Query{Op: table.AggCount}); err != nil || r.Partial != nil {
		t.Fatalf("full answer after revive: partial=%+v err=%v", r.Partial, err)
	}

	// Without AllowPartial the identical loss is a typed hard failure.
	strict, err := New(ft, Config{Shards: 4, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := strict.KillNode(2); err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Query(&query.Query{Op: table.AggCount}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("strict loss error = %v, want ErrShardUnavailable", err)
	}
}

// TestClusterConfigSentinel asserts every construction failure wraps
// ErrConfig so callers can errors.Is instead of string-matching.
func TestClusterConfigSentinel(t *testing.T) {
	ft := testTable(t, 1_000, 1)
	for _, cfg := range []Config{
		{CPUThreads: 3},          // no 3-thread CPU model
		{EvictThreshold: -1},     // negative escalation threshold
		{KillGraceSeconds: -0.5}, // negative grace
	} {
		if _, err := New(ft, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("New(%+v) error = %v, want ErrConfig", cfg, err)
		}
	}
}

// TestClusterRepairLinkFaultBackoff drives the repair stream through
// injected link faults: with a bounded fault budget the seeded backoff
// retries through and both shards recover; with an unbounded fault rate
// and a deadline shorter than one transfer, every repair fails cleanly
// and the shards stay under-replicated for the next pass.
func TestClusterRepairLinkFaultBackoff(t *testing.T) {
	ft := testTable(t, 8_000, 17)

	// Limit 2: the first two transfer attempts fail, the third succeeds.
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:   5,
		Points: map[fault.Point]fault.PointConfig{fault.LinkTransfer: {Rate: 1, Limit: 2}},
	})
	c, err := New(ft, Config{Shards: 4, Replication: 2, Faults: plan, RepairSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareDead(0); err != nil {
		t.Fatal(err)
	}
	n, err := c.Repair()
	if err != nil || n != 2 {
		t.Fatalf("Repair = (%d, %v), want (2, nil)", n, err)
	}
	if fired := plan.Fired(fault.LinkTransfer); fired != 2 {
		t.Fatalf("link faults fired = %d, want 2", fired)
	}
	st := c.Stats()
	if st.RepairsStarted != 2 || st.RepairsCompleted != 2 || st.RepairsFailed != 0 {
		t.Fatalf("repair counters started=%d completed=%d failed=%d, want 2/2/0",
			st.RepairsStarted, st.RepairsCompleted, st.RepairsFailed)
	}
	if len(c.UnderReplicated()) != 0 {
		t.Fatalf("still under-replicated: %v", c.UnderReplicated())
	}
	// Failed streams congest the link but move no durable bytes: only the
	// two completed transfers are accounted.
	wantBytes := c.shardTables[0].SizeBytes() + c.shardTables[3].SizeBytes()
	if st.RepairBytesMoved != wantBytes {
		t.Fatalf("RepairBytesMoved = %d, want %d", st.RepairBytesMoved, wantBytes)
	}

	// Unbounded faults + a deadline shorter than a single transfer: each
	// shard fails after exactly one attempt and remains under-replicated.
	storm := fault.NewPlan(fault.PlanConfig{
		Seed:   5,
		Points: map[fault.Point]fault.PointConfig{fault.LinkTransfer: {Rate: 1}},
	})
	c2, err := New(ft, Config{Shards: 4, Replication: 2, Faults: storm,
		RepairSeed: 7, RepairDeadlineSeconds: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.DeclareDead(0); err != nil {
		t.Fatal(err)
	}
	n, err = c2.Repair()
	if n != 0 || err == nil {
		t.Fatalf("Repair under a fault storm = (%d, %v), want (0, deadline error)", n, err)
	}
	st = c2.Stats()
	if st.RepairsFailed != 2 || st.RepairsCompleted != 0 || st.RepairBytesMoved != 0 {
		t.Fatalf("storm counters failed=%d completed=%d bytes=%d, want 2/0/0",
			st.RepairsFailed, st.RepairsCompleted, st.RepairBytesMoved)
	}
	if ur := c2.UnderReplicated(); len(ur) != 2 {
		t.Fatalf("under-replicated after failed pass = %v, want both lost shards", ur)
	}
}

// TestClusterEvictionEscalation drives permanent loss through the QUERY
// path: with quarantine and eviction thresholds of 1, the first injected
// dispatch failure quarantines, escalates, and declares the node dead —
// while the query itself fails over and answers exactly.
func TestClusterEvictionEscalation(t *testing.T) {
	ft := testTable(t, 6_000, 19)
	ref, err := New(ft, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Op: table.AggSum, Measure: 0}
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(fault.PlanConfig{
		Seed:   3,
		Points: map[fault.Point]fault.PointConfig{fault.NodeExec: {Rate: 1, Limit: 1}},
	})
	c, err := New(ft, Config{Shards: 4, Replication: 2, Faults: plan,
		MaxRetries: 6, QuarantineThreshold: 1, EvictThreshold: 1})
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
	if st.NodeFailures != 1 || st.NodeQuarantines != 1 || st.NodesEvicted != 1 {
		t.Fatalf("failures=%d quarantines=%d evicted=%d, want 1/1/1",
			st.NodeFailures, st.NodeQuarantines, st.NodesEvicted)
	}
	if ur := c.UnderReplicated(); len(ur) != 2 {
		t.Fatalf("under-replicated after eviction = %v, want the dead node's 2 shards", ur)
	}

	// The evicted node takes no further placements: its submit counter is
	// frozen while the cluster keeps answering exactly.
	evicted := -1
	for i, ns := range st.PerNode {
		if ns.Health == "evicted" {
			evicted = i
		}
	}
	if evicted < 0 {
		t.Fatalf("no node reports evicted health: %+v", st.PerNode)
	}
	before := st.PerNode[evicted].Submitted
	for i := 0; i < 5; i++ {
		got, err := c.Query(q)
		if err != nil || !sameScalar(got, want) {
			t.Fatalf("post-eviction query: r={%v %d} err=%v", got.Value, got.Rows, err)
		}
	}
	if after := c.Stats().PerNode[evicted].Submitted; after != before {
		t.Fatalf("evicted node took placements: submitted %d -> %d", before, after)
	}

	// An explicit repair pass restores the replication factor.
	if n, err := c.Repair(); err != nil || n != 2 {
		t.Fatalf("Repair = (%d, %v), want (2, nil)", n, err)
	}
	if ur := c.UnderReplicated(); len(ur) != 0 {
		t.Fatalf("under-replicated after repair: %v", ur)
	}
}

// TestClusterEvictedNodeNeverPlaced pins the scan invariant directly: a
// node whose HEALTH is Evicted takes no placements in any pass — even
// the desperation pass that tolerates quarantined nodes — even before
// the death declaration lands. With the only other holder down, the
// query must refuse rather than touch the evicted node.
func TestClusterEvictedNodeNeverPlaced(t *testing.T) {
	ft := testTable(t, 4_000, 7)
	c, err := New(ft, Config{Shards: 2, Replication: 2,
		QuarantineThreshold: 1, EvictThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Escalate node 1's health to Evicted WITHOUT declaring it dead —
	// the window where health has escalated but the coordinator's death
	// declaration has not landed yet.
	c.mu.Lock()
	c.health.Failure(1, c.nowS())
	c.mu.Unlock()

	q := &query.Query{Op: table.AggCount}
	if _, err := c.Query(q); err != nil {
		t.Fatalf("query with node 0 alive: %v", err)
	}
	if st := c.Stats(); st.PerNode[1].Submitted != 0 {
		t.Fatalf("evicted-health node took %d placements", st.PerNode[1].Submitted)
	}

	// Node 0 down leaves only the evicted node; every pass must skip it.
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(q); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("error = %v, want ErrShardUnavailable (desperation pass must not use an evicted node)", err)
	}
}

// TestClusterRepairNoTargetThenRevive covers total-loss topologies: at
// N=2/RF=2 a dead node leaves no live non-holder to replicate onto, so
// repair fails cleanly; reviving the node (which rejoins EMPTY) gives
// the controller its target back and the next pass restores RF.
func TestClusterRepairNoTargetThenRevive(t *testing.T) {
	ft := testTable(t, 6_000, 29)
	ref, err := New(ft, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	scalars := diffQueries(t, ft)
	groups := diffGroupQueries(t)
	refS, refG := runAll(t, ref, scalars, groups)

	c, err := New(ft, Config{Shards: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareDead(1); err != nil {
		t.Fatal(err)
	}
	n, err := c.Repair()
	if n != 0 || err == nil {
		t.Fatalf("Repair with no possible target = (%d, %v), want (0, error)", n, err)
	}
	if st := c.Stats(); st.RepairsFailed != 2 {
		t.Fatalf("RepairsFailed = %d, want 2", st.RepairsFailed)
	}
	if ur := c.UnderReplicated(); len(ur) != 2 {
		t.Fatalf("under-replicated = %v, want both shards", ur)
	}

	// Revive: the node rejoins holding NOTHING (its data died with it) —
	// which is exactly what makes it a repair target.
	if err := c.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); len(st.PerNode[1].Shards) != 0 {
		t.Fatalf("revived dead node still claims shards %v", st.PerNode[1].Shards)
	}
	n, err = c.Repair()
	if err != nil || n != 2 {
		t.Fatalf("Repair after revive = (%d, %v), want (2, nil)", n, err)
	}
	if ur := c.UnderReplicated(); len(ur) != 0 {
		t.Fatalf("under-replicated after repair: %v", ur)
	}

	// The restored replicas serve exactly: with node 0 down, node 1's
	// repaired copies are the only holders left.
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	gotS, gotG := runAll(t, c, scalars, groups)
	for i := range scalars {
		if !sameScalar(gotS[i], refS[i]) {
			t.Errorf("repaired-replica query %d: got {%v %d}, ref {%v %d}",
				scalars[i].ID, gotS[i].Value, gotS[i].Rows, refS[i].Value, refS[i].Rows)
		}
	}
	for i := range groups {
		if !sameGroups(gotG[i], refG[i]) {
			t.Errorf("repaired-replica group query %d: rows differ", groups[i].ID)
		}
	}
}

// TestClusterKillGraceSweep pins the transient-to-permanent promotion: a
// killed node is declared dead once it has been down KillGraceSeconds,
// detected lazily by the next placement's grace sweep.
func TestClusterKillGraceSweep(t *testing.T) {
	ft := testTable(t, 4_000, 37)
	c, err := New(ft, Config{Shards: 4, Replication: 2, KillGraceSeconds: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // outlive the grace period
	if _, err := c.Query(&query.Query{Op: table.AggCount}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.NodesEvicted != 1 {
		t.Fatalf("NodesEvicted = %d, want 1 (grace expired)", st.NodesEvicted)
	}
	if ur := c.UnderReplicated(); len(ur) != 2 {
		t.Fatalf("under-replicated = %v, want the dead node's 2 shards", ur)
	}
	if n, err := c.Repair(); err != nil || n != 2 {
		t.Fatalf("Repair = (%d, %v), want (2, nil)", n, err)
	}
}

// TestClusterModelRepairDeterminism asserts recovery on the virtual
// clock is a pure function of (table, config, seeds) and that a slower
// link yields a strictly longer recovery — the relation the repair
// benchmark sweeps.
func TestClusterModelRepairDeterminism(t *testing.T) {
	ft := testTable(t, 8_000, 41)
	run := func(bw float64) (int, float64) {
		plan := fault.NewPlan(fault.PlanConfig{
			Seed:   11,
			Points: map[fault.Point]fault.PointConfig{fault.LinkTransfer: {Rate: 0.5, Limit: 4}},
		})
		c, err := New(ft, Config{Shards: 4, Replication: 2, Faults: plan,
			RepairSeed: 11, Link: perfmodel.LinkModel{LatencySeconds: 0.0005, BandwidthMBps: bw}})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DeclareDead(0); err != nil {
			t.Fatal(err)
		}
		n, doneAt, err := c.ModelRepair(5.0)
		if err != nil {
			t.Fatal(err)
		}
		return n, doneAt
	}
	n1, d1 := run(125)
	n2, d2 := run(125)
	if n1 != n2 || d1 != d2 {
		t.Fatalf("same seeds, different recovery: (%d, %v) vs (%d, %v)", n1, d1, n2, d2)
	}
	if n1 != 2 || d1 <= 5.0 {
		t.Fatalf("recovery = (%d, %v), want 2 replicas after t=5", n1, d1)
	}
	_, slow := run(125.0 / 4)
	if slow <= d1 {
		t.Fatalf("quarter-bandwidth recovery %v not slower than full %v", slow, d1)
	}
}
