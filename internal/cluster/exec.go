package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// Completeness is the mask a degraded (Config.AllowPartial) answer
// carries: exactly which slice of the global chunk grid the fold
// covered. A full answer has a nil *Completeness — the mask exists only
// when chunks are missing, so callers can test `route.Partial != nil`
// instead of comparing counts.
type Completeness struct {
	// ChunksAnswered counts global grid chunks folded into the answer;
	// ChunksTotal is the grid size (Config.Chunks). A shard answered by
	// the CPU cube shortcut contributes all of its chunks: the shard
	// total IS those chunks' fold.
	ChunksAnswered int `json:"chunks_answered"`
	ChunksTotal    int `json:"chunks_total"`
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
	// the answer then covers only the chunks the mask claims.
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
// semantics lifted to nodes. The failed node is excluded from the re-plan
// (place falls back to it only when nothing else is alive).
func (c *Cluster) execShard(s int, deadline float64, sp subQuerySpec, m table.Member) ([]table.State, error) {
	tried := make(map[int]bool)
	for attempt := 0; ; attempt++ {
		pl, err := c.place(c.nowS(), deadline, s, sp, tried, attempt > 0)
		if err != nil {
			return nil, err
		}
		if ferr := c.cfg.Faults.Check(fault.NodeExec, pl.node); ferr != nil {
			willRetry := attempt < c.maxRetries()
			c.noteFailure(pl, willRetry)
			tried[pl.node] = true
			if !willRetry {
				return nil, ferr
			}
			continue
		}
		t0 := time.Now()
		out, err := c.runShard(pl, sp, m)
		act := time.Since(t0).Seconds()
		if err != nil {
			willRetry := attempt < c.maxRetries()
			c.noteExecFailure(pl, willRetry)
			tried[pl.node] = true
			if !willRetry {
				return nil, err
			}
			continue
		}
		c.noteSuccess(pl, act)
		c.noteDispatch(pl)
		return out, nil
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
	dev, err := c.buildDevice(s)
	if err != nil {
		return nil, err
	}
	nd.devs[s] = dev
	return dev, nil
}

// runShard executes a placed sub-query and returns shard s's chunk
// states in chunk order. The CPU path answers a scalar member from the
// node's shard cube set — permitted only for fold-order-insensitive ops,
// so the single shard-total state it returns merges into the
// coordinator's chunk fold without perturbing a bit.
func (c *Cluster) runShard(pl placement, sp subQuerySpec, m table.Member) ([]table.State, error) {
	nd := c.nodes[pl.node]
	if pl.dec.Queue.Kind == sched.QueueCPU {
		r, err := c.answerOnNodeCPU(nd, pl.shard, sp, m.Op)
		if err != nil {
			return nil, err
		}
		return []table.State{{Scalar: r}}, nil
	}
	dev, err := c.deviceFor(nd, pl.shard)
	if err != nil {
		return nil, err
	}
	return dev.Partitions()[pl.dec.Queue.Index].ExecuteChunks(m, c.shardChunks[pl.shard])
}

// answerOnNodeCPU answers a count/min/max sub-query from the node's
// resident cube set for the shard. Counts are integers; min/max SELECT a
// stored value rather than accumulating — all three are bit-equal to the
// scan over the same rows, which is what licenses the CPU shortcut.
func (c *Cluster) answerOnNodeCPU(nd *node, s int, sp subQuerySpec, op table.AggOp) (table.ScanResult, error) {
	nd.mu.Lock()
	cs := nd.cubes[s]
	nd.mu.Unlock()
	if cs == nil {
		return table.ScanResult{}, fmt.Errorf("cluster: node %d holds no cubes for shard %d", nd.id, s)
	}
	if sp.boxEmpty {
		return table.ScanResult{}, nil
	}
	agg, _, err := cs.Aggregate(sp.box, sp.res, c.cfg.CPUThreads)
	if err != nil {
		return table.ScanResult{}, err
	}
	return agg.Result(op), nil
}

// Query answers a query across every shard: translate once at the
// coordinator, fan the sub-query out (placement and failover per shard,
// all against the one T_D stamped on arrival), then fold ALL chunk
// states flat in global chunk order — shard 0's chunks, then shard 1's,
// ... — and finalize: Merge/Finalize for a scalar query, MergeGroups/
// FinalizeGroups into key-sorted rows for a grouped one (per-key fold
// order is the merge-call order, so map iteration order is irrelevant).
// The fold tree is identical for every shard count, replica choice and
// failover history, so the answer is bit-identical to the N=1 cluster on
// the same table.
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
	sp := c.specFor(q, m)

	partials := make([][]table.State, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for s := range c.nodes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			partials[s], errs[s] = c.execShard(s, deadline, sp, m)
		}(s)
	}
	wg.Wait()
	cp, err := c.degrade(errs)
	if err != nil {
		return Result{}, err
	}

	res := Result{Partial: cp}
	if q.Grouped() {
		var acc table.Groups
		for _, part := range partials {
			for _, st := range part {
				acc = table.MergeGroups(m.Op, acc, st.Groups)
			}
		}
		res.Groups = table.FinalizeGroups(m.Op, acc, len(m.GroupBy))
	} else {
		var acc table.ScanResult
		for _, part := range partials {
			for _, st := range part {
				acc = table.Merge(m.Op, acc, st.Scalar)
			}
		}
		r := table.Finalize(m.Op, acc)
		res.Value, res.Rows = r.Value, r.Rows
	}
	res.Latency = time.Since(started)
	return res, nil
}

// degrade inspects the per-shard fan-out errors. Without AllowPartial
// any error is fatal. With it, ErrShardUnavailable shards are dropped
// from the fold and reported in a Completeness mask whose chunk count
// is exactly the set of grid chunks the surviving shards contributed —
// the acceptance contract is that mask == chunks folded, which holds
// because a shard either contributes ALL of its chunks (scan partials
// or the equivalent CPU shard total) or none. Any other error stays
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
	answered := c.cfg.Chunks
	for _, s := range missing {
		answered -= len(c.shardChunks[s])
	}
	c.mu.Lock()
	c.stats.PartialAnswers++
	c.mu.Unlock()
	return &Completeness{
		ChunksAnswered: answered,
		ChunksTotal:    c.cfg.Chunks,
		MissingShards:  missing,
	}, nil
}
