package engine

import (
	"fmt"
	"math"
	"testing"

	"hybridolap/internal/fault"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// faultFreeAt recomputes a query fault-free on an explicit placement,
// using a system with no fault plan installed. Partition reductions are
// deterministic (per-unit partials merge in unit order), so this is the
// bit-exact answer the same placement must produce in the chaos run.
func faultFreeAt(t *testing.T, s *System, q0 *query.Query, queue sched.QueueRef) table.ScanResult {
	t.Helper()
	q := q0.Clone()
	if q.NeedsTranslation() {
		if _, err := query.Translate(q, s.Dicts()); err != nil {
			t.Fatal(err)
		}
	}
	var r table.ScanResult
	var err error
	if queue.Kind == sched.QueueCPU {
		r, err = s.AnswerOnCPUAt(q, s.pin())
	} else {
		r, err = s.AnswerOnGPUAt(q, queue.Index, s.pin())
	}
	if err != nil {
		t.Fatalf("fault-free recompute of query %d on %s: %v", q0.ID, queue, err)
	}
	return r
}

// chaosWorkload regenerates the identical query stream for one seed:
// queries are mutated in place by translation, so each run gets a fresh
// copy from the same generator seed.
func chaosWorkload(t *testing.T, s *System, seed int64, n int) []*query.Query {
	t.Helper()
	return testGen(t, s, seed, 0.3).Batch(n)
}

// TestChaosDifferentialRunReal is the tentpole invariant: under an
// injected fault plan (GPU kernel aborts + dictionary miss storms), every
// query that completes returns a result bit-identical to the fault-free
// run of the same workload. Faults may cost retries, quarantines and
// failovers — never wrong answers.
func TestChaosDifferentialRunReal(t *testing.T) {
	const queries = 60
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mutate := func(spec *SetupSpec) {
				spec.Rows = 4000
				spec.Seed = 7 // same table both runs
				spec.QuarantineThreshold = 2
				spec.ReprobeSeconds = 0.02
			}

			base := testSystem(t, mutate)
			baseRes, err := base.RunReal(chaosWorkload(t, base, seed, queries))
			if err != nil {
				t.Fatal(err)
			}
			if baseRes.Failed != 0 {
				t.Fatalf("fault-free run failed %d queries", baseRes.Failed)
			}

			plan := fault.NewPlan(fault.PlanConfig{Seed: seed, Points: map[fault.Point]fault.PointConfig{
				fault.GPUExec:    {Rate: 0.25},
				fault.DictLookup: {Rate: 0.25},
			}})
			chaos := testSystem(t, func(spec *SetupSpec) {
				mutate(spec)
				spec.Faults = plan
			})
			chaosRes, err := chaos.RunReal(chaosWorkload(t, chaos, seed, queries))
			if err != nil {
				t.Fatal(err)
			}

			if plan.TotalFired() == 0 {
				t.Fatal("fault plan never fired; the differential is vacuous")
			}
			if chaosRes.Retried == 0 && chaosRes.Failed == 0 {
				t.Fatal("faults fired but nothing was retried or failed")
			}
			// Differential: every completed chaos query must return exactly
			// what its final placement returns fault-free — bit-identical
			// value, same rows. Different placements sum floats in different
			// orders, so the bitwise comparison is placement-matched; row
			// counts are integers and must also agree with the baseline run
			// regardless of placement.
			pristine := chaosWorkload(t, base, seed, queries)
			for i, co := range chaosRes.Outcomes {
				if co.Err != nil {
					continue // a spent retry budget is legal; wrong answers are not
				}
				bo := baseRes.Outcomes[i]
				if co.ID != bo.ID {
					t.Fatalf("workload diverged at slot %d: id %d vs %d", i, co.ID, bo.ID)
				}
				if co.Result.Rows != bo.Result.Rows {
					t.Fatalf("query %d: chaos run matched %d rows, fault-free %d",
						co.ID, co.Result.Rows, bo.Result.Rows)
				}
				want := faultFreeAt(t, base, pristine[i], co.Queue)
				if math.Float64bits(co.Result.Value) != math.Float64bits(want.Value) ||
					co.Result.Rows != want.Rows {
					t.Fatalf("query %d (queue %s, %d attempts): chaos result (%v, %d rows) != fault-free (%v, %d rows)",
						co.ID, co.Queue, co.Attempts, co.Result.Value, co.Result.Rows, want.Value, want.Rows)
				}
			}
			st := chaosRes.SchedStats
			if st.PartitionFailures == 0 {
				t.Fatal("no partition failures recorded despite fired GPU faults")
			}
			t.Logf("seed %d: fired=%d retried=%d failed=%d resubmitted=%d quarantines=%d reprobes=%d",
				seed, plan.TotalFired(), chaosRes.Retried, chaosRes.Failed,
				st.Resubmitted, st.Quarantines, st.Reprobes)
		})
	}
}

// TestChaosTotalGPUFailover drives every GPU attempt to failure: the
// health layer quarantines all partitions and CPU-answerable queries must
// still complete — correctly — via the policy's CPU fallback, while
// GPU-only (text) queries fail cleanly once their retry budget is spent.
func TestChaosTotalGPUFailover(t *testing.T) {
	const queries = 30
	mutate := func(spec *SetupSpec) {
		spec.Rows = 3000
		spec.Seed = 7
		spec.QuarantineThreshold = 1
		spec.ReprobeSeconds = 1e6 // quarantined partitions never come back
		spec.MaxRetries = 8       // enough attempts to outlive the quarantine sweep
	}
	// No text predicates: the point here is the CPU/cube failover, and
	// cubes cannot answer text queries at all.
	base := testSystem(t, mutate)
	baseRes, err := base.RunReal(testGen(t, base, 11, 0).Batch(queries))
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(fault.PlanConfig{Seed: 11, Points: map[fault.Point]fault.PointConfig{
		fault.GPUExec: {Rate: 1},
	}})
	chaos := testSystem(t, func(spec *SetupSpec) {
		mutate(spec)
		spec.Faults = plan
	})
	chaosRes, err := chaos.RunReal(testGen(t, chaos, 11, 0).Batch(queries))
	if err != nil {
		t.Fatal(err)
	}

	pristine := testGen(t, base, 11, 0).Batch(queries)
	completed := 0
	for i, co := range chaosRes.Outcomes {
		if co.Err != nil {
			continue
		}
		completed++
		bo := baseRes.Outcomes[i]
		if co.Result.Rows != bo.Result.Rows {
			t.Fatalf("query %d: failover matched %d rows, fault-free %d", co.ID, co.Result.Rows, bo.Result.Rows)
		}
		want := faultFreeAt(t, base, pristine[i], co.Queue)
		if math.Float64bits(co.Result.Value) != math.Float64bits(want.Value) || co.Result.Rows != want.Rows {
			t.Fatalf("query %d: failover result (%v, %d) != fault-free (%v, %d)",
				co.ID, co.Result.Value, co.Result.Rows, want.Value, want.Rows)
		}
	}
	if completed == 0 {
		t.Fatal("no query survived total GPU failure; CPU failover is broken")
	}
	if chaosRes.SchedStats.Quarantines == 0 {
		t.Fatal("total GPU failure quarantined nothing")
	}
	states := chaos.Scheduler().HealthStates()
	quarantined := 0
	for _, h := range states {
		if h != 0 { // anything not Healthy
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Fatalf("health states %v: expected quarantined partitions", states)
	}
	t.Logf("completed=%d/%d failed=%d quarantines=%d states=%v",
		completed, queries, chaosRes.Failed, chaosRes.SchedStats.Quarantines, states)
}
