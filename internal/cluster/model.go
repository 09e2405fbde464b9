package cluster

import (
	"fmt"
	"math/rand"

	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// ModelConfig drives RunModel, the closed-loop virtual-clock simulation
// behind BENCH_cluster.json. Clients model concurrent dashboard sessions:
// each issues its next query the instant its previous one completes, so
// queue pressure — the thing the movement/slack trade-off acts on — comes
// from the workload itself rather than wall-clock sleeps.
type ModelConfig struct {
	Queries int   // total queries to run (default 200)
	Clients int   // closed-loop clients (default 8)
	Seed    int64 // workload seed
	Grouped bool  // every query carries a GROUP BY (GPU-only path)
}

// ModelResult summarises one RunModel sweep case.
type ModelResult struct {
	Queries         int     `json:"queries"`
	Clients         int     `json:"clients"`
	Makespan        float64 `json:"makespan_seconds"`
	QPS             float64 `json:"qps"`
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
	MeanLatency     float64 `json:"mean_latency_seconds"`
	RemoteShare     float64 `json:"remote_share"`
	BytesMoved      int64   `json:"bytes_moved"`
	MoveSeconds     float64 `json:"move_seconds"`
}

// modelQuery generates one workload query: range predicates on the two
// level-2 dimension columns (below the materialised cubes except for the
// fold-order-insensitive ops the CPU path may shortcut), ops rotating
// through the aggregate set — the fusionbench workload shape, reused so
// cluster numbers are comparable with the serving sweep.
func modelQuery(rng *rand.Rand, id int64, grouped bool) *query.Query {
	ops := []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg}
	op := ops[int(id)%len(ops)]
	sub := func(card int) (uint32, uint32) {
		lo := rng.Intn(card)
		return uint32(lo), uint32(lo + rng.Intn(card-lo))
	}
	f0, t0 := sub(256)
	f1, t1 := sub(128)
	meas := rng.Intn(2)
	if op == table.AggCount {
		meas = 0
	}
	q := &query.Query{
		ID: id,
		Conditions: []query.Condition{
			{Dim: 0, Level: 2, From: f0, To: t0},
			{Dim: 1, Level: 2, From: f1, To: t1},
		},
		Measure: meas,
		Op:      op,
	}
	if grouped {
		q.GroupBy = []query.GroupRef{{Dim: 0, Level: 0}}
	}
	return q
}

// RunModel runs the workload through the cluster's REAL planner on a
// virtual clock and reports throughput and deadline behaviour. Placement
// is exactly the serving path's place() — Peek, rank, Submit, link-clock
// booking — only execution is modelled: a sub-query's completion is
//
//	max(queueStart, transferEnd) + serviceSeconds
//
// where transferEnd is the destination node's ingress-link clock after
// the booked fetch (now for a resident replica). The modelled completion
// is fed back into the node's queue clock, so the movement-BLIND planner
// pays for its optimism on the very next placement: it books remote work
// as if the fetch were free, the feedback snaps the queue to reality, and
// its deadline-hit rate erodes under load. The movement-aware planner saw
// the link time inside Peek and traded it against queue slack up front.
//
// The loop is single-threaded and fully seeded — no wall clock, no
// goroutine interleaving — so a (config, seed) pair reproduces bit-equal
// results run after run. Run it on a FRESH cluster per case: it mutates
// queue clocks and coordinator stats.
func (c *Cluster) RunModel(mc ModelConfig) (ModelResult, error) {
	if mc.Queries <= 0 {
		mc.Queries = 200
	}
	if mc.Clients <= 0 {
		mc.Clients = 8
	}
	rng := rand.New(rand.NewSource(mc.Seed)) // olaplint:seededrand model workload
	deadline := c.deadlineSeconds()
	free := make([]float64, mc.Clients)
	var hits int
	var makespan, latSum float64

	for i := 0; i < mc.Queries; i++ {
		cl := 0
		for j := range free {
			if free[j] < free[cl] {
				cl = j
			}
		}
		now := free[cl]
		q := modelQuery(rng, int64(i), mc.Grouped)

		m, empty, err := q.Member(c.schema)
		if err != nil {
			return ModelResult{}, err
		}
		if empty {
			continue
		}
		completion := now
		for s := 0; s < c.cfg.Shards; s++ {
			sq, err := c.subQueryFor(s, q, m)
			if err != nil {
				return ModelResult{}, err
			}
			pl, err := c.place(now, now+deadline, sq, nil, false)
			if err != nil {
				return ModelResult{}, fmt.Errorf("cluster model: query %d shard %d: %w", i, s, err)
			}
			transferEnd := now
			if pl.moveBytes > 0 {
				c.mu.Lock()
				transferEnd = c.linkClock[pl.node]
				c.mu.Unlock()
			}
			start := pl.dec.Start
			if transferEnd > start {
				start = transferEnd
			}
			end := start + pl.svcSeconds
			c.nodes[pl.node].sched.Feedback(pl.dec.Queue, end-pl.dec.End, now)
			c.noteDispatch(pl)
			if end > completion {
				completion = end
			}
		}

		lat := completion - now
		latSum += lat
		if lat <= deadline {
			hits++
		}
		free[cl] = completion
		if completion > makespan {
			makespan = completion
		}
	}

	st := c.Stats()
	res := ModelResult{
		Queries:     mc.Queries,
		Clients:     mc.Clients,
		Makespan:    makespan,
		BytesMoved:  st.BytesMoved,
		MoveSeconds: st.MoveSeconds,
	}
	if makespan > 0 {
		res.QPS = float64(mc.Queries) / makespan
	}
	if mc.Queries > 0 {
		res.DeadlineHitRate = float64(hits) / float64(mc.Queries)
		res.MeanLatency = latSum / float64(mc.Queries)
	}
	if st.SubQueries > 0 {
		res.RemoteShare = float64(st.RemoteSubQueries) / float64(st.SubQueries)
	}
	return res, nil
}
