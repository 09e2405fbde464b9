package cluster

import (
	"errors"
	"fmt"

	"hybridolap/internal/cube"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// subQuery is one shard's sub-query as place books it, priced once per
// shard: its step-2 estimate on a holder of the shard and the fetch a
// non-holder pays before it can scan.
type subQuery struct {
	shard       int
	est         sched.Estimates // on a holder; a non-holder is offered no CPU path
	moveBytes   int64           // the shard's scanned columns, moved to a non-holder
	linkSeconds float64         // moveBytes priced by the link model
}

// subQueryFor prices shard s's sub-query with the engine's step 2 over a
// holder's cube set (every holder builds the same one), offered under the
// rule System.Estimate applies: whatever the cubes can answer. A cube
// walk's partial and a scan's are the same exact units. P_GPU is
// calibrated on the full table; a shard scans its row fraction of it —
// the scale-out the cluster exists to buy.
func (c *Cluster) subQueryFor(s int, q *query.Query, m table.Member) (subQuery, error) {
	cs := c.holderCubes(s)
	est, err := c.pricer.Price(q, cs)
	if err != nil {
		return subQuery{}, err
	}
	frac := float64(c.shardTables[s].Rows()) / float64(c.ft.Rows())
	for i := range est.GPUSeconds {
		est.GPUSeconds[i] *= frac
	}
	moveBytes := c.fetchBytes(s, m)
	return subQuery{shard: s, est: est, moveBytes: moveBytes, linkSeconds: c.link.TransferSeconds(moveBytes)}, nil
}

// holderCubes returns shard s's cube set on its first holder, or nil when
// no holder is left.
func (c *Cluster) holderCubes(s int) *cube.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.holders[s] {
		nd := c.nodes[h]
		nd.mu.Lock()
		cs := nd.cubes[s]
		nd.mu.Unlock()
		if cs != nil {
			return cs
		}
	}
	return nil
}

// fetchBytes prices moving shard s's scanned columns to a non-holder:
// every referenced 4-byte code column (predicates and grouping columns)
// plus the 8-byte measure, for each of the shard's rows. This is the byte
// count LinkModel turns into seconds and the movement-aware planner folds
// into deadlines.
func (c *Cluster) fetchBytes(s int, m table.Member) int64 {
	rows := int64(c.shardTables[s].Rows())
	b := rows * int64(4*(len(m.Predicates)+len(m.GroupBy)))
	if m.Op != table.AggCount {
		b += rows * 8
	}
	return b
}

// placement is one committed shard sub-query booking.
type placement struct {
	shard int
	node  int
	src   int // holder the data is fetched from; -1 when resident
	dec   sched.Decision
	// svcSeconds is the chosen queue's service estimate EXCLUDING link
	// time; linkSeconds the priced transfer (zero when resident).
	svcSeconds  float64
	linkSeconds float64
	moveBytes   int64
}

// ErrShardUnavailable is returned when no node can serve a shard: every
// holder is down (or dead) and no live holder remains to fetch from.
// With Config.AllowPartial the coordinator converts it into a degraded
// answer instead of a failure; callers match it with errors.Is.
var ErrShardUnavailable = errors.New("cluster: no live node can serve shard")

// place chooses a node for a shard's sub-query and commits the booking
// on that node's scheduler. Candidates are every eligible node: holders
// serve their resident replica, non-holders pay the priced fetch from a
// live holder. The movement-aware planner compares completion times WITH
// link cost folded in; movement-blind compares without (execution still
// pays). tried excludes nodes that already failed this sub-query —
// unless excluding them empties the candidate set, in which case they
// become candidates again (a transient fault on the only holder must be
// retryable). resubmit re-books against the original absolute deadline,
// so a failover competes for whatever slack remains.
func (c *Cluster) place(now, deadline float64, sq subQuery, tried map[int]bool, resubmit bool) (placement, error) {
	// The grace sweep runs in its own critical section so the auto-repair
	// kick happens with no lock held: the repair pass takes repairMu then
	// c.mu, and kicking under c.mu would close a lock-order cycle.
	c.mu.Lock()
	swept := c.sweepGraceLocked(now)
	c.mu.Unlock()
	if swept {
		c.kickAutoRepair()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	s := sq.shard

	// A live holder must exist for anyone to serve the shard: holders
	// serve themselves; non-holders fetch from one.
	src := -1
	for _, h := range c.holders[s] {
		if !c.down[h] {
			src = h
			break
		}
	}
	if src < 0 {
		return placement{}, fmt.Errorf("%w %d: all %d holders down", ErrShardUnavailable, s, len(c.holders[s]))
	}

	type scored struct {
		placement
		est sched.Estimates
		end float64
	}
	var best *scored
	scan := func(skipTried, requireHealthy bool) {
		for _, nd := range c.nodes {
			if c.down[nd.id] || (skipTried && tried[nd.id]) {
				continue
			}
			// An evicted node is dead to placement in EVERY pass — even
			// the desperation scan that tolerates quarantined nodes. A
			// quarantined node is suspect; an evicted one was declared
			// lost, and its dead/down flags should already exclude it —
			// this check keeps the invariant even if health escalated
			// before the death declaration landed.
			if st, _ := c.health.State(nd.id); st == sched.Evicted {
				continue
			}
			if requireHealthy && !c.health.Eligible(nd.id, now) {
				continue
			}
			cand := scored{placement: placement{shard: s, node: nd.id, src: -1}, est: sq.est}
			if !c.isHolder(s, nd.id) {
				// A non-holder holds no cubes and scans only after the
				// fetch; the movement-blind planner decides without it.
				cand.est.CPUOK, cand.est.CPUSeconds = false, 0
				cand.src, cand.moveBytes, cand.linkSeconds = src, sq.moveBytes, sq.linkSeconds
				if !c.cfg.MovementBlind {
					cand.est.LinkSeconds = sq.linkSeconds
				}
			}
			nd.mu.Lock()
			d, err := nd.sched.Peek(now, cand.est)
			nd.mu.Unlock()
			if err != nil {
				continue // e.g. every partition of this node quarantined
			}
			cand.end = d.End
			if best == nil || cand.end < best.end || (cand.end == best.end && cand.node < best.node) {
				best = &cand
			}
		}
	}
	scan(true, true)
	if best == nil && len(tried) > 0 {
		// Every untried node is dead or quarantined: allow re-trying
		// previously failed nodes rather than failing the query outright.
		scan(false, true)
	}
	if best == nil {
		// Desperation: every live node is quarantined. A quarantined node
		// is suspect, not dead (KillNode is how death is modelled) — trying
		// it beats failing the query, and a success starts its recovery.
		scan(false, false)
	}
	if best == nil {
		return placement{}, fmt.Errorf("%w %d: no eligible node", ErrShardUnavailable, s)
	}

	nd := c.nodes[best.node]
	nd.mu.Lock()
	var d sched.Decision
	var err error
	if resubmit {
		d, err = nd.sched.Resubmit(now, deadline, best.est)
	} else {
		d, err = nd.sched.Submit(now, best.est)
	}
	nd.mu.Unlock()
	if err != nil {
		return placement{}, err
	}
	best.dec = d
	if d.Queue.Kind == sched.QueueCPU {
		best.svcSeconds = best.est.CPUSeconds
	} else {
		best.svcSeconds = best.est.GPUSeconds[d.Queue.Index]
	}
	if best.moveBytes > 0 && best.src >= 0 {
		// The transfer serialises on the destination node's ingress link:
		// book it on the coordinator's per-node link clock so concurrent
		// fetches queue behind each other in the model.
		if c.linkClock[best.node] < now {
			c.linkClock[best.node] = now
		}
		c.linkClock[best.node] += best.linkSeconds
	}
	return best.placement, nil
}

// isHolder reports whether node id holds a replica of shard s.
func (c *Cluster) isHolder(s, id int) bool {
	for _, h := range c.holders[s] {
		if h == id {
			return true
		}
	}
	return false
}

// noteDispatch updates coordinator stats for a successful sub-query.
func (c *Cluster) noteDispatch(pl placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.SubQueries++
	if pl.src < 0 {
		c.stats.LocalSubQueries++
	} else {
		c.stats.RemoteSubQueries++
		c.stats.BytesMoved += pl.moveBytes
		c.stats.MoveSeconds += pl.linkSeconds
	}
	if c.health.Success(pl.node) {
		c.stats.NodeReprobes++
	}
}

// noteFailure records a failed dispatch: coordinator health (possibly
// quarantining the node), failure counters, and releasing the booked
// service time from the node's queue clock so later placements are not
// charged phantom work on a dead node. When the quarantine escalates to
// eviction (Config.EvictThreshold), the node is declared permanently
// dead here and the repair controller takes over its shards.
func (c *Cluster) noteFailure(pl placement, willRetry bool) {
	now := c.nowS()
	evicted := false
	c.mu.Lock()
	c.stats.NodeFailures++
	if willRetry {
		c.stats.Failovers++
	}
	if c.health.Failure(pl.node, now) {
		c.stats.NodeQuarantines++
		if st, _ := c.health.State(pl.node); st == sched.Evicted {
			evicted = c.declareDeadLocked(pl.node)
		}
	}
	c.mu.Unlock()
	if evicted {
		c.kickAutoRepair()
	}

	nd := c.nodes[pl.node]
	nd.mu.Lock()
	nd.sched.Feedback(pl.dec.Queue, -(pl.dec.End - pl.dec.Start), now)
	nd.mu.Unlock()
}

// noteSuccess feeds the attempt's simulated-plus-measured service time
// back into the node's queue clock and reports partition health. The
// priced link time is treated as having really elapsed (there is no wall
// clock for a simulated network), so movement congestion stays on the
// clocks instead of being drained by feedback.
func (c *Cluster) noteSuccess(pl placement, actSeconds float64) {
	now := c.nowS()
	nd := c.nodes[pl.node]
	nd.mu.Lock()
	nd.sched.Feedback(pl.dec.Queue, (actSeconds+pl.linkSeconds)-(pl.dec.End-pl.dec.Start), now)
	if pl.dec.Queue.Kind == sched.QueueGPU {
		nd.sched.ReportSuccess(pl.dec.Queue)
	}
	nd.mu.Unlock()
}

// noteExecFailure is noteFailure plus partition-health reporting on the
// node's own scheduler: an execution error (e.g. an injected GPU fault)
// indicts the partition, not just the node.
func (c *Cluster) noteExecFailure(pl placement, willRetry bool) {
	now := c.nowS()
	nd := c.nodes[pl.node]
	nd.mu.Lock()
	if pl.dec.Queue.Kind == sched.QueueGPU {
		nd.sched.ReportFailure(pl.dec.Queue, now)
	}
	nd.mu.Unlock()
	c.noteFailure(pl, willRetry)
}
