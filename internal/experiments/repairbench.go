package experiments

import (
	"fmt"

	"hybridolap/internal/cluster"
	"hybridolap/internal/fault"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/table"
)

// repairFile is where RepairRecovery drops its machine-readable result.
const repairFile = "BENCH_repair.json"

// repairCase is one row of the recovery sweep as persisted to
// BENCH_repair.json. RecoverySeconds is virtual time from the loss
// declaration to the last promoted replica — the headline quantity.
// SlowOverFastRecovery is filled on the slowest fault-free row and is
// the within-run ratio the compare gate tracks.
type repairCase struct {
	Case                 string  `json:"case"`
	BandwidthMBps        float64 `json:"bandwidth_mbps"`
	Faulty               bool    `json:"faulty"`
	Repaired             int     `json:"repaired"`
	RecoverySeconds      float64 `json:"recovery_seconds"`
	RepairBytesMoved     int64   `json:"repair_bytes_moved"`
	LinkFaultsFired      int64   `json:"link_faults_fired"`
	SlowOverFastRecovery float64 `json:"slow_over_fast_recovery,omitempty"`
}

type repairReport struct {
	Experiment  string       `json:"experiment"`
	Rows        int          `json:"rows"`
	Nodes       int          `json:"nodes"`
	Replication int          `json:"replication"`
	Seed        int64        `json:"seed"`
	Results     []repairCase `json:"results"`
}

// RepairRecovery measures the self-healing controller on the virtual
// clock: node 0 of an N=4, RF=2 cluster is declared permanently dead and
// ModelRepair re-replicates its two shards, swept across link bandwidths
// (healthy gigabit down to a congested quarter-gigabit) both fault-free
// and through a seeded link-fault storm that exercises the backoff
// retries. Recovery time is a pure function of (table, config, seeds),
// so the headline — the slow/fast recovery ratio — is bit-reproducible
// on any machine; quick mode runs the identical sweep.
func RepairRecovery(opts Options) (*Table, error) {
	const (
		rows  = 100_000
		nodes = 4
		rf    = 2
	)

	ft, err := table.Generate(table.GenSpec{
		Schema: table.PaperSchema(), Rows: rows, Seed: opts.seed(),
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "repair",
		Title:   "Shard re-replication: recovery time vs link bandwidth",
		Columns: []string{"case", "repaired", "recovery s", "moved MB", "link faults", "slow/fast"},
		Notes: []string{
			fmt.Sprintf("%d rows over %d nodes (replication %d), node 0 declared permanently dead; machine-readable copy in %s",
				rows, nodes, rf, repairFile),
			"recovery = virtual seconds from loss to the last promoted replica (streams serialise on the target's ingress link)",
			"faulty rows retry injected link faults with seeded exponential backoff; all quantities are seed-reproducible",
		},
	}
	report := repairReport{
		Experiment: "repair", Rows: rows,
		Nodes: nodes, Replication: rf, Seed: opts.seed(),
	}

	runCase := func(bw float64, faulty bool) (repairCase, error) {
		var plan *fault.Plan
		if faulty {
			plan = fault.NewPlan(fault.PlanConfig{
				Seed: opts.seed(),
				Points: map[fault.Point]fault.PointConfig{
					fault.LinkTransfer: {Rate: 0.5, Limit: 6},
				},
			})
		}
		cl, err := cluster.New(ft, cluster.Config{
			Shards:      nodes,
			Replication: rf,
			Faults:      plan,
			RepairSeed:  opts.seed(),
			Link:        perfmodel.LinkModel{LatencySeconds: 0.0005, BandwidthMBps: bw},
		})
		if err != nil {
			return repairCase{}, err
		}
		if err := cl.DeclareDead(0); err != nil {
			return repairCase{}, err
		}
		repaired, doneAt, err := cl.ModelRepair(0)
		if err != nil {
			return repairCase{}, err
		}
		st := cl.Stats()
		c := repairCase{
			BandwidthMBps:    bw,
			Faulty:           faulty,
			Repaired:         repaired,
			RecoverySeconds:  doneAt,
			RepairBytesMoved: st.RepairBytesMoved,
		}
		if plan != nil {
			c.LinkFaultsFired = plan.Fired(fault.LinkTransfer)
		}
		return c, nil
	}

	bandwidths := []float64{500, 125, 31.25}
	var fastClean float64
	for _, faulty := range []bool{false, true} {
		for bi, bw := range bandwidths {
			c, err := runCase(bw, faulty)
			if err != nil {
				return nil, fmt.Errorf("repair bw=%.4g faulty=%v: %w", bw, faulty, err)
			}
			mode := "clean"
			if faulty {
				mode = "faulty"
			}
			c.Case = fmt.Sprintf("repair bw=%.4gMBps %s", bw, mode)
			if !faulty {
				if bi == 0 {
					fastClean = c.RecoverySeconds
				} else if bi == len(bandwidths)-1 && fastClean > 0 {
					c.SlowOverFastRecovery = c.RecoverySeconds / fastClean
				}
			}
			ratio := ""
			if c.SlowOverFastRecovery > 0 {
				ratio = fmt.Sprintf("%.2fx", c.SlowOverFastRecovery)
			}
			t.Rows = append(t.Rows, []string{
				c.Case, fmt.Sprintf("%d", c.Repaired), f(c.RecoverySeconds),
				fmt.Sprintf("%.1f", float64(c.RepairBytesMoved)/(1<<20)),
				fmt.Sprintf("%d", c.LinkFaultsFired), ratio,
			})
			report.Results = append(report.Results, c)
		}
	}

	t.Baseline = &report
	return t, nil
}
