package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hybridolap/internal/engine"
	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// Completeness is the mask a degraded (Config.AllowPartial) answer
// carries: exactly which rows the answer covers. A full answer has a nil
// *Completeness — the mask exists only when shards are missing, so callers
// can test `route.Partial != nil` instead of comparing counts.
type Completeness struct {
	// RowsAnswered counts the table rows merged into the answer: every row
	// of each shard that answered, whether by a scan or by a cube walk.
	// RowsTotal is the table's row count.
	RowsAnswered int `json:"rows_answered"`
	RowsTotal    int `json:"rows_total"`
	// MissingShards lists the shards skipped because no live node could
	// serve them, ascending.
	MissingShards []int `json:"missing_shards"`
}

// Result is one cluster answer: Value and Rows for a scalar query, Groups
// for a grouped one.
type Result struct {
	Value float64
	Rows  int64
	// Groups holds a grouped query's rows, sorted by key; Value and Rows
	// are then zero.
	Groups  []table.GroupRow
	Latency time.Duration
	// Partial is non-nil when AllowPartial skipped unavailable shards:
	// the answer then covers only the rows the mask claims.
	Partial *Completeness
}

// translate resolves text predicates against the GLOBAL dictionary set —
// shard views share it, so one translation is valid on every node. A
// dictionary miss storm (fault.DictLookup) fails the attempt and retries
// within the failover budget, like the engine's attempt loop.
func (c *Cluster) translate(q *query.Query) error {
	if !q.NeedsTranslation() {
		return nil
	}
	maxAttempts := 1 + c.maxRetries()
	for attempt := 0; ; attempt++ {
		err := c.cfg.Faults.Check(fault.DictLookup, -1)
		if err == nil {
			_, err = query.Translate(q, c.ft.Dicts())
		}
		if err == nil {
			return nil
		}
		if attempt+1 >= maxAttempts {
			return err
		}
	}
}

// execShard runs shard s's sub-query with deadline-aware failover: plan a
// node, cross the NodeExec fault point (the simulated crash), execute,
// and on failure re-plan against the query's absolute deadline so the
// retry competes for whatever slack remains — the engine's Resubmit
// semantics lifted to nodes. Every booking is settled on its node's
// scheduler under the engine's rule: a crashed dispatch never ran and
// gives its window back; an attempt that ran is charged what it took,
// the priced link time included (a simulated network has no wall clock,
// so movement congestion stays on the clocks). The failed node is
// excluded from the re-plan (place falls back to it only when nothing
// else is alive).
func (c *Cluster) execShard(s int, deadline float64, q *query.Query, m table.Member) (table.State, error) {
	sq, err := c.subQueryFor(s, q, m)
	if err != nil {
		return table.State{}, err
	}
	tried := make(map[int]bool)
	for attempt := 0; ; attempt++ {
		pl, err := c.place(c.nowS(), deadline, sq, tried, attempt > 0)
		if err != nil {
			return table.State{}, err
		}
		var out table.State
		var o sched.Outcome
		if err = c.cfg.Faults.Check(fault.NodeExec, pl.node); err == nil {
			t0 := time.Now()
			out, err = c.runShard(pl, q, m)
			o = sched.Outcome{Ran: true, Seconds: time.Since(t0).Seconds() + pl.linkSeconds, Failed: err != nil}
		}
		c.nodes[pl.node].sched.Settle(pl.dec, c.nowS(), o)
		if err == nil {
			c.noteDispatch(pl)
			return out, nil
		}
		willRetry := attempt < c.maxRetries()
		c.noteFailure(pl, willRetry)
		tried[pl.node] = true
		if !willRetry {
			return table.State{}, err
		}
	}
}

// deviceFor returns node nd's device for shard s, building one on first
// use when the node is not a holder: the shard's columns were just
// fetched over the link (that is what the placement's LinkSeconds
// priced), so the simulated device loads the shard view directly.
func (c *Cluster) deviceFor(nd *node, s int) (*gpusim.Device, error) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if dev, ok := nd.devs[s]; ok {
		return dev, nil
	}
	dev, _, err := engine.NewNode(c.shardTables[s], c.pricer.Widths(), nil, c.cfg.Faults)
	if err != nil {
		return nil, err
	}
	nd.devs[s] = dev
	return dev, nil
}

// runShard executes a placed sub-query and returns shard s's partial: a
// walk of the node's shard cube set on the CPU path, the one Execute over
// the node's shard device on a GPU partition. Either is exact integer
// units, so either merges into the coordinator's answer to the same bits.
func (c *Cluster) runShard(pl placement, q *query.Query, m table.Member) (table.State, error) {
	nd := c.nodes[pl.node]
	if pl.dec.Queue.Kind == sched.QueueCPU {
		nd.mu.Lock()
		cs := nd.cubes[pl.shard]
		nd.mu.Unlock()
		return engine.CubeWalk(q, cs, c.cfg.CPUThreads)
	}
	dev, err := c.deviceFor(nd, pl.shard)
	if err != nil {
		return table.State{}, err
	}
	ans, err := dev.Partitions()[pl.dec.Queue.Index].Execute(dev.Resident(), []table.Member{m})
	if err != nil {
		return table.State{}, err
	}
	return ans[0].Partial, nil
}

// Query answers a query across every shard: translate once at the
// coordinator, fan the sub-query out (placement and failover per shard,
// all against the one T_D stamped on arrival), then merge the shards'
// partials and finalize: Merge/Finalize for a scalar query, MergeGroups/
// FinalizeGroups into key-sorted rows for a grouped one. Partials are
// exact integer units, so the answer is bit-identical for every shard
// count, replica choice and failover history, and to the single node's.
func (c *Cluster) Query(q0 *query.Query) (Result, error) {
	started := time.Now()
	deadline := c.nowS() + c.deadlineSeconds()
	q := q0.Clone()
	if err := c.translate(q); err != nil {
		return Result{}, err
	}
	m, empty, err := q.Member(c.schema)
	if err != nil {
		return Result{}, err
	}
	c.mu.Lock()
	if q.Grouped() {
		c.stats.GroupQueries++
	} else {
		c.stats.Queries++
	}
	c.mu.Unlock()
	if empty {
		return Result{Latency: time.Since(started)}, nil
	}
	partials := make([]table.State, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for s := range c.nodes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			partials[s], errs[s] = c.execShard(s, deadline, q, m)
		}(s)
	}
	wg.Wait()
	cp, err := c.degrade(errs)
	if err != nil {
		return Result{}, err
	}

	res := Result{Partial: cp}
	scale := c.schema.MeasureScale(m.Measure)
	// A missing shard's partial is the zero state.
	if q.Grouped() {
		var acc table.Groups
		for _, part := range partials {
			acc = table.MergeGroups(m.Op, acc, part.Groups)
		}
		res.Groups = table.FinalizeGroups(m.Op, scale, acc, len(m.GroupBy))
	} else {
		var acc table.ScanResult
		for _, part := range partials {
			acc = table.Merge(m.Op, acc, part.Scalar)
		}
		r := table.Finalize(m.Op, scale, acc)
		res.Value, res.Rows = r.Value, r.Rows
	}
	res.Latency = time.Since(started)
	return res, nil
}

// degrade inspects the per-shard fan-out errors. Without AllowPartial
// any error is fatal. With it, ErrShardUnavailable shards are dropped
// from the merge and reported in a Completeness mask whose row count is
// exactly the rows of the surviving shards — a shard contributes all of
// its rows (a scan or a cube walk of them) or none. Any other error stays
// fatal even in partial mode: a failed node is not a missing shard.
func (c *Cluster) degrade(errs []error) (*Completeness, error) {
	var missing []int
	for s, err := range errs {
		if err == nil {
			continue
		}
		if c.cfg.AllowPartial && errors.Is(err, ErrShardUnavailable) {
			missing = append(missing, s)
			continue
		}
		return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	if len(missing) == 0 {
		return nil, nil
	}
	answered := c.ft.Rows()
	for _, s := range missing {
		answered -= c.shardTables[s].Rows()
	}
	c.mu.Lock()
	c.stats.PartialAnswers++
	c.mu.Unlock()
	return &Completeness{
		RowsAnswered:  answered,
		RowsTotal:     c.ft.Rows(),
		MissingShards: missing,
	}, nil
}
