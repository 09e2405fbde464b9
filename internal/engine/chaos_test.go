package engine

import (
	"math"
	"testing"

	"hybridolap/internal/fault"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// faultFreeAt recomputes a query fault-free, using a system with no fault
// plan installed: a CPU-placed answer on the CPU, a GPU-placed one on
// partition 0 whichever partition queue names. A GPU answer is a function
// of the snapshot's rows and the request alone (gpusim's fold grid;
// TestPlacementFree), so this is the bit-exact answer every placement must
// produce in the chaos run.
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
		r, err = s.AnswerOnGPUAt(q, 0, s.pin())
	}
	if err != nil {
		t.Fatalf("fault-free recompute of query %d on %s: %v", q0.ID, queue, err)
	}
	return r
}

// faultFreeGroupsAt is faultFreeAt for a grouped query.
func faultFreeGroupsAt(t *testing.T, s *System, q0 *query.Query, queue sched.QueueRef) []table.GroupRow {
	t.Helper()
	q := q0.Clone()
	if q.NeedsTranslation() {
		if _, err := query.Translate(q, s.Dicts()); err != nil {
			t.Fatal(err)
		}
	}
	var rows []table.GroupRow
	var err error
	if queue.Kind == sched.QueueCPU {
		rows, err = s.answerGroupsOnCPUAt(q, s.pin())
	} else {
		rows, err = s.AnswerGroupsOnGPUAt(q, 0, s.pin())
	}
	if err != nil {
		t.Fatalf("fault-free recompute of grouped query %d on %s: %v", q0.ID, queue, err)
	}
	return rows
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
	// The last case is the only one whose table spans several blocks of
	// gpusim's fold grid (three full ones and a short fourth), so that the
	// partitions' fork/join and unit-order merge run under faults too.
	for _, c := range []struct {
		name string
		seed int64
		rows int
	}{{"seed=1", 1, 4000}, {"seed=2", 2, 4000}, {"seed=3", 3, 4000}, {"rows=100000", 1, 100_000}} {
		seed := c.seed
		t.Run(c.name, func(t *testing.T) {
			mutate := func(spec *SetupSpec) {
				spec.Rows = c.rows
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
			// the fault-free answer — bit-identical value, same rows. The CPU
			// folds cube cells where the GPU scans rows, so the bitwise
			// comparison is matched on CPU-or-GPU and on nothing finer: a
			// retry that moved a query to another partition must not show.
			// Row counts are integers and must also agree with the baseline
			// run whatever the placement.
			pristine := chaosWorkload(t, base, seed, queries)
			moved := 0
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
				if co.Queue.Kind == sched.QueueGPU && bo.Queue.Kind == sched.QueueGPU && co.Queue != bo.Queue {
					moved++
					if math.Float64bits(co.Result.Value) != math.Float64bits(bo.Result.Value) {
						t.Fatalf("query %d: %v on %s under chaos, %v on %s fault-free",
							co.ID, co.Result.Value, co.Queue, bo.Result.Value, bo.Queue)
					}
				}
			}
			if moved == 0 {
				t.Fatal("no query changed partitions under chaos; the placement-free check is vacuous")
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
