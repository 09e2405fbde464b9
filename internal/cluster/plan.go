package cluster

import (
	"errors"
	"fmt"

	"hybridolap/internal/cube"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// subQuerySpec is the scheduler-visible shape of one shard sub-query: the
// column footprint (for the GPU models and the fetch price) plus the
// CPU-path geometry, computed once per query and reused for every shard
// and every failover attempt.
type subQuerySpec struct {
	cols      int  // C_QD of eq. 12 (incl. grouping columns)
	intCols   int  // 4-byte code columns a fetch must move
	needsMeas bool // 8-byte measure column moved too
	groupCols int  // grouping columns (GPU-only path when > 0)
	cpuOK     bool // op is fold-order-insensitive and cube-answerable
	res       int  // cube resolution for the CPU path
	box       cube.Box
	boxEmpty  bool
}

// specFor derives the sub-query spec from a translated query and its
// plan member.
func (c *Cluster) specFor(q *query.Query, m table.Member) subQuerySpec {
	req, groupCols := m.ScanRequest, len(m.GroupBy)
	sp := subQuerySpec{
		cols:      m.ColumnsAccessed(),
		intCols:   len(req.Predicates) + groupCols,
		needsMeas: req.Op != table.AggCount,
		groupCols: groupCols,
	}
	// A shard-total cube answer stands in for the shard's chunk partials
	// bit for bit only for an order-free op; sum and avg take the grid.
	if groupCols == 0 && q.Op.OrderFree() && !q.GPUOnly() && (q.Op == table.AggCount || q.Measure == 0) {
		r := q.Resolution()
		box, empty, err := q.Box(c.schema, r)
		if err == nil {
			sp.cpuOK = true
			sp.res = r
			sp.box = box
			sp.boxEmpty = empty
		}
	}
	return sp
}

// fetchBytes prices moving shard s's scanned columns to a non-holder:
// every referenced 4-byte code column plus the 8-byte measure, for each
// of the shard's rows. This is the byte count LinkModel turns into
// seconds and the movement-aware planner folds into deadlines.
func (c *Cluster) fetchBytes(s int, sp subQuerySpec) int64 {
	rows := int64(c.shardTables[s].Rows())
	b := rows * int64(4*sp.intCols)
	if sp.needsMeas {
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

// estimatesOn builds the scheduler estimates for running shard s's
// sub-query on node nd. Non-residents never get the CPU path (they hold
// no cubes), and only get GPU estimates after pricing the fetch.
func (c *Cluster) estimatesOn(nd *node, s int, sp subQuerySpec, resident bool, aware bool) (est sched.Estimates, linkSeconds float64, moveBytes int64, err error) {
	frac := float64(c.shardTables[s].Rows()) / float64(c.ft.Rows())
	est.GPUSeconds = make([]float64, len(c.layout))
	for i, w := range c.layout {
		t, err := c.est.GPUTime(w, sp.cols, c.totalCols)
		if err != nil {
			return sched.Estimates{}, 0, 0, err
		}
		// P_GPU is calibrated on the full table; a shard scans its row
		// fraction of it — the scale-out the cluster exists to buy.
		est.GPUSeconds[i] = t * frac
	}
	if resident && sp.cpuOK {
		if cs, ok := nd.cubes[s]; ok {
			bytes, ok := subCubeBytes(cs, sp)
			if ok {
				mb := float64(bytes) / (1 << 20)
				t, err := c.est.CPUTime(c.cfg.CPUThreads, mb)
				if err == nil {
					est.CPUOK = true
					est.CPUSeconds = t
				}
			}
		}
	}
	if !resident {
		moveBytes = c.fetchBytes(s, sp)
		linkSeconds = c.link.TransferSeconds(moveBytes)
	}
	if aware {
		est.LinkSeconds = linkSeconds
	}
	return est, linkSeconds, moveBytes, nil
}

// subCubeBytes prices the CPU path's sub-cube stream for a spec.
func subCubeBytes(cs *cube.Set, sp subQuerySpec) (int64, bool) {
	if sp.boxEmpty {
		_, ok := cs.PickLevel(sp.res)
		return 0, ok
	}
	return cs.SubCubeBytes(sp.box, sp.res)
}

// ErrShardUnavailable is returned when no node can serve a shard: every
// holder is down (or dead) and no live holder remains to fetch from.
// With Config.AllowPartial the coordinator converts it into a degraded
// answer instead of a failure; callers match it with errors.Is.
var ErrShardUnavailable = errors.New("cluster: no live node can serve shard")

// place chooses a node for shard s's sub-query and commits the booking
// on that node's scheduler. Candidates are every eligible node: holders
// serve their resident replica, non-holders pay the priced fetch from a
// live holder. The movement-aware planner compares completion times WITH
// link cost folded in; movement-blind compares without (execution still
// pays). tried excludes nodes that already failed this sub-query —
// unless excluding them empties the candidate set, in which case they
// become candidates again (a transient fault on the only holder must be
// retryable). resubmit re-books against the original absolute deadline,
// so a failover competes for whatever slack remains.
func (c *Cluster) place(now, deadline float64, s int, sp subQuerySpec, tried map[int]bool, resubmit bool) (placement, error) {
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
	aware := !c.cfg.MovementBlind

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
	scan := func(skipTried, requireHealthy bool) error {
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
			resident := c.isHolder(s, nd.id)
			est, linkS, moveB, err := c.estimatesOn(nd, s, sp, resident, aware)
			if err != nil {
				return err
			}
			nd.mu.Lock()
			d, err := nd.sched.Peek(now, est)
			nd.mu.Unlock()
			if err != nil {
				continue // e.g. every partition of this node quarantined
			}
			cand := scored{
				placement: placement{
					shard: s, node: nd.id, src: -1,
					linkSeconds: linkS, moveBytes: moveB,
				},
				est: est, end: d.End,
			}
			if !resident {
				cand.src = src
			}
			if best == nil || cand.end < best.end || (cand.end == best.end && cand.node < best.node) {
				best = &cand
			}
		}
		return nil
	}
	if err := scan(true, true); err != nil {
		return placement{}, err
	}
	if best == nil && len(tried) > 0 {
		// Every untried node is dead or quarantined: allow re-trying
		// previously failed nodes rather than failing the query outright.
		if err := scan(false, true); err != nil {
			return placement{}, err
		}
	}
	if best == nil {
		// Desperation: every live node is quarantined. A quarantined node
		// is suspect, not dead (KillNode is how death is modelled) — trying
		// it beats failing the query, and a success starts its recovery.
		if err := scan(false, false); err != nil {
			return placement{}, err
		}
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
