package experiments

import (
	"fmt"

	"hybridolap/internal/cluster"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/table"
)

// clusterFile is where ClusterScaling drops its machine-readable result.
const clusterFile = "BENCH_cluster.json"

// clusterCase is one row of the sharded-execution sweep, as persisted to
// BENCH_cluster.json. ModelResult contributes the throughput and deadline
// fields; AwareOverBlindQPS is filled on movement-aware rows only and is
// the within-run headline the compare gate tracks.
type clusterCase struct {
	Case          string `json:"case"`
	Nodes         int    `json:"nodes"`
	Replication   int    `json:"replication"`
	MovementAware bool   `json:"movement_aware"`
	Grouped       bool   `json:"grouped"`
	cluster.ModelResult
	AwareOverBlindQPS float64 `json:"aware_over_blind_qps,omitempty"`
}

type clusterReport struct {
	Experiment      string        `json:"experiment"`
	Rows            int           `json:"rows"`
	QueriesPerCase  int           `json:"queries_per_case"`
	Clients         int           `json:"clients"`
	DeadlineSeconds float64       `json:"deadline_seconds"`
	Seed            int64         `json:"seed"`
	Results         []clusterCase `json:"results"`
}

// ClusterScaling measures distributed sharded execution on the virtual
// clock: for N in {1,2,4,8} simulated nodes (replication 2), the same
// closed-loop workload runs through the REAL coordinator planner twice —
// movement-aware (link cost folded into every placement estimate) and
// movement-blind (placement ignores the link; execution still pays it).
// Scalar (scan) and grouped (group-scan) sweeps run separately. Results
// land in BENCH_cluster.json; the headline is the within-run aware/blind
// QPS ratio, so machine speed divides out entirely (the model is
// virtual-time and fully seeded — quick mode only shrinks the workload).
func ClusterScaling(opts Options) (*Table, error) {
	const (
		rows     = 100_000
		clients  = 32
		deadline = 0.08
	)
	queries := opts.pick(2_000, 400)

	ft, err := table.Generate(table.GenSpec{
		Schema: table.PaperSchema(), Rows: rows, Seed: opts.seed(),
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "cluster",
		Title:   "Sharded execution: movement-aware vs movement-blind placement",
		Columns: []string{"case", "qps", "deadline-hit", "mean ms", "remote", "moved MB", "aware/blind"},
		Notes: []string{
			fmt.Sprintf("%d rows over N nodes (replication 2), %d queries, %d closed-loop clients, deadline %.0fms; machine-readable copy in %s",
				rows, queries, clients, deadline*1000, clusterFile),
			"aware = link cost inside placement estimates; blind = placement ignores the link, execution pays it",
			"virtual-clock model through the real planner: ratios are machine-independent and seed-reproducible",
		},
	}
	report := clusterReport{
		Experiment: "cluster", Rows: rows, QueriesPerCase: queries,
		Clients: clients, DeadlineSeconds: deadline, Seed: opts.seed(),
	}

	runCase := func(nodes int, grouped, blind bool) (cluster.ModelResult, error) {
		cl, err := cluster.New(ft, cluster.Config{
			Shards:          nodes,
			Replication:     2,
			DeadlineSeconds: deadline,
			MovementBlind:   blind,
			// A quarter-gigabit cross-rack link: expensive enough that an
			// unpriced fetch is a real scheduling mistake, which is the
			// regime the aware-vs-blind ablation is about.
			Link: perfmodel.LinkModel{LatencySeconds: 0.0005, BandwidthMBps: 31.25},
		})
		if err != nil {
			return cluster.ModelResult{}, err
		}
		return cl.RunModel(cluster.ModelConfig{
			Queries: queries, Clients: clients,
			Seed: opts.seed(), Grouped: grouped,
		})
	}

	for _, grouped := range []bool{false, true} {
		kind := "scan"
		if grouped {
			kind = "group"
		}
		for _, nodes := range []int{1, 2, 4, 8} {
			var blindQPS float64
			for _, blind := range []bool{true, false} {
				mr, err := runCase(nodes, grouped, blind)
				if err != nil {
					return nil, fmt.Errorf("cluster %s N=%d blind=%v: %w", kind, nodes, blind, err)
				}
				c := clusterCase{
					Nodes: nodes, Replication: 2,
					MovementAware: !blind, Grouped: grouped,
					ModelResult: mr,
				}
				mode := "aware"
				if blind {
					mode = "blind"
					blindQPS = mr.QPS
				} else if blindQPS > 0 {
					c.AwareOverBlindQPS = mr.QPS / blindQPS
				}
				c.Case = fmt.Sprintf("%s N=%d %s", kind, nodes, mode)

				ratio := ""
				if c.AwareOverBlindQPS > 0 {
					ratio = fmt.Sprintf("%.2fx", c.AwareOverBlindQPS)
				}
				t.Rows = append(t.Rows, []string{
					c.Case, f(mr.QPS),
					fmt.Sprintf("%.3f", mr.DeadlineHitRate),
					fmt.Sprintf("%.3f", mr.MeanLatency*1000),
					fmt.Sprintf("%.2f", mr.RemoteShare),
					fmt.Sprintf("%.1f", float64(mr.BytesMoved)/(1<<20)),
					ratio,
				})
				report.Results = append(report.Results, c)
			}
		}
	}

	t.Baseline = &report
	return t, nil
}
