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

// Result is one scalar cluster answer.
type Result struct {
	Value   float64
	Rows    int64
	Latency time.Duration
	// Partial is non-nil when AllowPartial skipped unavailable shards:
	// Value/Rows then cover only the chunks the mask claims.
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

// execShard runs one shard sub-query with deadline-aware failover: plan a
// node, cross the NodeExec fault point (the simulated crash), execute,
// and on failure re-plan with the ORIGINAL absolute deadline so the retry
// competes for whatever slack remains — the engine's Resubmit semantics
// lifted to nodes. The failed node is excluded from the re-plan (place
// falls back to it only when nothing else is alive).
func execShard[T any](c *Cluster, s int, sp subQuerySpec, run func(placement) (T, error)) (T, error) {
	var zero T
	deadline := c.nowS() + c.deadlineSeconds()
	tried := make(map[int]bool)
	for attempt := 0; ; attempt++ {
		pl, err := c.place(c.nowS(), deadline, s, sp, tried, attempt > 0)
		if err != nil {
			return zero, err
		}
		if ferr := c.cfg.Faults.Check(fault.NodeExec, pl.node); ferr != nil {
			willRetry := attempt < c.maxRetries()
			c.noteFailure(pl, willRetry)
			tried[pl.node] = true
			if !willRetry {
				return zero, ferr
			}
			continue
		}
		t0 := time.Now()
		out, err := run(pl)
		act := time.Since(t0).Seconds()
		if err != nil {
			willRetry := attempt < c.maxRetries()
			c.noteExecFailure(pl, willRetry)
			tried[pl.node] = true
			if !willRetry {
				return zero, err
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

// runScalar executes a placed scalar sub-query and returns shard s's
// partials in chunk order. The CPU path answers from the node's shard
// cube set — permitted only for fold-order-insensitive ops, so the single
// shard-total partial it returns merges into the coordinator's chunk fold
// without perturbing a bit.
func (c *Cluster) runScalar(pl placement, sp subQuerySpec, req table.ScanRequest) ([]table.ScanResult, error) {
	nd := c.nodes[pl.node]
	if pl.dec.Queue.Kind == sched.QueueCPU {
		r, err := c.answerOnNodeCPU(nd, pl.shard, sp, req.Op)
		if err != nil {
			return nil, err
		}
		return []table.ScanResult{r}, nil
	}
	dev, err := c.deviceFor(nd, pl.shard)
	if err != nil {
		return nil, err
	}
	return dev.Partitions()[pl.dec.Queue.Index].ExecuteChunks(req, c.shardChunks[pl.shard])
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

// Query answers a scalar query across every shard: translate once at the
// coordinator, fan the sub-query out (placement and failover per shard),
// then fold ALL chunk partials flat in global chunk order — shard 0's
// chunks, then shard 1's, ... — and finalize. The fold tree is identical
// for every shard count, replica choice and failover history, so the
// answer is bit-identical to the N=1 cluster on the same table.
func (c *Cluster) Query(q0 *query.Query) (Result, error) {
	if q0.Grouped() {
		return Result{}, fmt.Errorf("cluster: query %d has GROUP BY; use QueryGroups", q0.ID)
	}
	started := time.Now()
	q := q0.Clone()
	if err := c.translate(q); err != nil {
		return Result{}, err
	}
	req, empty, err := q.ToScanRequest(c.schema)
	if err != nil {
		return Result{}, err
	}
	c.mu.Lock()
	c.stats.Queries++
	c.mu.Unlock()
	if empty {
		return Result{Latency: time.Since(started)}, nil
	}
	sp := c.specFor(q, req, 0)

	partials := make([][]table.ScanResult, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for s := range c.nodes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			partials[s], errs[s] = execShard(c, s, sp, func(pl placement) ([]table.ScanResult, error) {
				return c.runScalar(pl, sp, req)
			})
		}(s)
	}
	wg.Wait()
	cp, err := c.degrade(errs)
	if err != nil {
		return Result{}, err
	}

	var acc table.ScanResult
	for s := range partials {
		for _, p := range partials[s] {
			acc = table.Merge(req.Op, acc, p)
		}
	}
	res := table.Finalize(req.Op, acc)
	return Result{Value: res.Value, Rows: res.Rows, Latency: time.Since(started), Partial: cp}, nil
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

// QueryGroups answers a grouped query across every shard. Each chunk
// contributes a fresh group map built by one pass over its rows; the
// coordinator merges the maps in global chunk order (per-key fold order
// is the merge-call order, so map iteration order is irrelevant) and
// finalizes into key-sorted rows — bit-identical across shard counts by
// the same argument as Query. The *Completeness is nil for a full
// answer and the degraded-read mask under AllowPartial.
func (c *Cluster) QueryGroups(q0 *query.Query) ([]table.GroupRow, *Completeness, time.Duration, error) {
	if !q0.Grouped() {
		return nil, nil, 0, fmt.Errorf("cluster: query %d has no GROUP BY; use Query", q0.ID)
	}
	started := time.Now()
	q := q0.Clone()
	if err := c.translate(q); err != nil {
		return nil, nil, 0, err
	}
	greq, empty, err := q.ToGroupScanRequest(c.schema)
	if err != nil {
		return nil, nil, 0, err
	}
	c.mu.Lock()
	c.stats.GroupQueries++
	c.mu.Unlock()
	if empty {
		return nil, nil, time.Since(started), nil
	}
	sp := c.specFor(q, greq.ScanRequest, len(greq.GroupBy))

	partials := make([][]table.Groups, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for s := range c.nodes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			partials[s], errs[s] = execShard(c, s, sp, func(pl placement) ([]table.Groups, error) {
				dev, err := c.deviceFor(c.nodes[pl.node], pl.shard)
				if err != nil {
					return nil, err
				}
				return dev.Partitions()[pl.dec.Queue.Index].ExecuteGroupChunks(greq, c.shardChunks[pl.shard])
			})
		}(s)
	}
	wg.Wait()
	cp, err := c.degrade(errs)
	if err != nil {
		return nil, nil, 0, err
	}

	var acc table.Groups
	for s := range partials {
		for _, g := range partials[s] {
			acc = table.MergeGroups(greq.Op, acc, g)
		}
	}
	rows := table.FinalizeGroups(greq.Op, acc, len(greq.GroupBy))
	return rows, cp, time.Since(started), nil
}
