package engine

import (
	"fmt"
	"math"
	"testing"

	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
)

// faultFree recomputes a query fault-free, using a system with no fault
// plan installed, on GPU partition 0 — and, when the cube set can answer
// it, on the CPU as well, which must agree to the bit. A GPU answer is a
// function of the snapshot's rows and the request alone (gpusim's fold
// grid; TestPlacementFree), and a cube walk folds the same exact integer
// units, so this is the bit-exact answer every placement, CPU or GPU, must
// produce.
func faultFree(t *testing.T, s *System, q0 *query.Query) gpusim.Answer {
	t.Helper()
	q := q0.Clone()
	if q.NeedsTranslation() {
		if _, err := query.Translate(q, s.Dicts()); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.pin()
	a, err := s.gpuAnswer(q, 0, snap)
	if err != nil {
		t.Fatalf("fault-free recompute of query %d on gpu[0]: %v", q0.ID, err)
	}
	// A query the cube set cannot answer (a text predicate, another
	// measure, a level no cube stores) fails on the CPU: nothing to compare.
	if c, err := s.cpuAnswer(q, snap); err == nil {
		if !resultBits(c.Result, a.Result) {
			t.Fatalf("query %d: the CPU answers %+v, the GPU %+v", q0.ID, c.Result, a.Result)
		}
		groupRowsBits(t, c.Groups, a.Groups, fmt.Sprintf("query %d on the CPU vs the GPU", q0.ID))
	}
	return a
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
// query of a concurrent batch of Serve calls that completes returns a
// result bit-identical to the fault-free run of the same workload. Faults
// may cost retries, quarantines and failovers — never wrong answers.
func TestChaosDifferentialRunReal(t *testing.T) {
	const queries = 60
	// The last case is the only one whose table spans several of gpusim's
	// work units (three full ones and a short fourth), so that the
	// partitions' fork/join and unit merge run under faults too.
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
			baseRes := serveAll(base, chaosWorkload(t, base, seed, queries))
			if failed, _ := tally(baseRes); failed != 0 {
				t.Fatalf("fault-free run failed %d queries", failed)
			}

			plan := fault.NewPlan(fault.PlanConfig{Seed: seed, Points: map[fault.Point]fault.PointConfig{
				fault.GPUExec:    {Rate: 0.25},
				fault.DictLookup: {Rate: 0.25},
			}})
			chaos := testSystem(t, func(spec *SetupSpec) {
				mutate(spec)
				spec.Faults = plan
			})
			chaosRes := serveAll(chaos, chaosWorkload(t, chaos, seed, queries))

			if plan.TotalFired() == 0 {
				t.Fatal("fault plan never fired; the differential is vacuous")
			}
			failed, retried := tally(chaosRes)
			if retried == 0 && failed == 0 {
				t.Fatal("faults fired but nothing was retried or failed")
			}
			// Differential: every completed chaos query must return exactly
			// the fault-free answer — bit-identical value, same rows —
			// whatever its route: the CPU's cube walk and every GPU
			// partition fold the same integer units, so a retry that moved
			// a query to another partition or to the CPU must not show.
			// Row counts must also agree with the baseline run.
			pristine := chaosWorkload(t, base, seed, queries)
			moved := 0
			for i, co := range chaosRes {
				if co.Err != nil {
					continue // a spent retry budget is legal; wrong answers are not
				}
				bo := baseRes[i]
				if co.ID != bo.ID {
					t.Fatalf("workload diverged at slot %d: id %d vs %d", i, co.ID, bo.ID)
				}
				if co.Result.Rows != bo.Result.Rows {
					t.Fatalf("query %d: chaos run matched %d rows, fault-free %d",
						co.ID, co.Result.Rows, bo.Result.Rows)
				}
				want := faultFree(t, base, pristine[i]).Result
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
			st := chaos.Scheduler().Stats()
			if st.PartitionFailures == 0 {
				t.Fatal("no partition failures recorded despite fired GPU faults")
			}
			t.Logf("seed %d: fired=%d retried=%d failed=%d resubmitted=%d quarantines=%d reprobes=%d",
				seed, plan.TotalFired(), retried, failed,
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
	baseRes := serveAll(base, testGen(t, base, 11, 0).Batch(queries))

	plan := fault.NewPlan(fault.PlanConfig{Seed: 11, Points: map[fault.Point]fault.PointConfig{
		fault.GPUExec: {Rate: 1},
	}})
	chaos := testSystem(t, func(spec *SetupSpec) {
		mutate(spec)
		spec.Faults = plan
	})
	chaosRes := serveAll(chaos, testGen(t, chaos, 11, 0).Batch(queries))

	pristine := testGen(t, base, 11, 0).Batch(queries)
	completed := 0
	for i, co := range chaosRes {
		if co.Err != nil {
			continue
		}
		completed++
		bo := baseRes[i]
		if co.Result.Rows != bo.Result.Rows {
			t.Fatalf("query %d: failover matched %d rows, fault-free %d", co.ID, co.Result.Rows, bo.Result.Rows)
		}
		want := faultFree(t, base, pristine[i]).Result
		if math.Float64bits(co.Result.Value) != math.Float64bits(want.Value) || co.Result.Rows != want.Rows {
			t.Fatalf("query %d: failover result (%v, %d) != fault-free (%v, %d)",
				co.ID, co.Result.Value, co.Result.Rows, want.Value, want.Rows)
		}
	}
	if completed == 0 {
		t.Fatal("no query survived total GPU failure; CPU failover is broken")
	}
	st := chaos.Scheduler().Stats()
	if st.Quarantines == 0 {
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
		completed, queries, queries-completed, st.Quarantines, states)
}
