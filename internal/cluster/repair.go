package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"hybridolap/internal/engine"
	"hybridolap/internal/fault"
)

// This file is the self-healing half of the cluster: once a node is
// declared permanently dead (quarantine escalation, kill-grace expiry,
// or an explicit DeclareDead), its shards sit below the replication
// factor until the repair controller streams each one from a live
// holder to a freshly chosen target. Repair is data movement, so it is
// priced and booked exactly like query movement: bytes x LinkModel on
// the destination's ingress link clock, which means in-flight repairs
// congest the very link queries fetch over — the Theseus trade the
// paper's scheduler makes between movement and slack, applied to
// recovery traffic.

// ErrShardLost is returned when a shard cannot be repaired because no
// live holder remains to stream it from: the data is gone until the
// last holder is revived. Matched with errors.Is.
var ErrShardLost = errors.New("cluster: shard lost, no live holder to repair from")

// repairBackoffBase/Cap bound the retry backoff against injected link
// faults (seconds, doubling per attempt, jittered x[0.5,1.5)).
const (
	repairBackoffBase = 0.0005
	repairBackoffCap  = 0.1
)

// tableCopyMessages prices a repair's stream: a copy of the whole table
// ships as this many messages, a shard's copy as its 1/N share of them (at
// least one), and each message pays the link's latency once
// (LinkModel.StreamSeconds), so a mid-stream failure re-sends only from
// the last message boundary.
const tableCopyMessages = 64

// Repair runs one controller pass: every under-replicated shard is
// re-replicated until it is back at the configured replication factor
// (or no progress is possible). Passes are serialised on repairMu, so
// concurrent callers — auto-repair kicks, admin drills — coalesce
// instead of double-copying. Returns the number of replicas created.
// Link-fault retries back off on the wall clock; the virtual-clock
// bookkeeping is identical to ModelRepair's.
func (c *Cluster) Repair() (int, error) {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	n, _, err := c.repairAll(c.nowS(), time.Sleep)
	return n, err
}

// ModelRepair is Repair on the virtual clock: backoffs advance virtual
// time without sleeping, and the returned doneAt is the virtual instant
// the last promoted replica came online — the recovery time the repair
// benchmark sweeps against link bandwidth. now is the virtual instant
// the controller starts (repair traffic queues behind whatever the link
// clocks already carry).
func (c *Cluster) ModelRepair(now float64) (repaired int, doneAt float64, err error) {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	return c.repairAll(now, func(time.Duration) {})
}

// repairAll drains the under-replicated set. A shard may need more than
// one new replica (RF > 2 with multiple losses), so the pass loops until
// the set is empty; a shard whose repair fails (lost, no target, budget
// exhausted) is set aside rather than retried within the pass — the next
// controller kick gets another go. Callers hold repairMu.
func (c *Cluster) repairAll(now float64, wait func(time.Duration)) (int, float64, error) {
	repaired := 0
	doneAt := now
	var firstErr error
	failed := make(map[int]bool)
	for {
		c.mu.Lock()
		under := c.underReplicatedLocked()
		c.mu.Unlock()
		progressed := false
		pending := false
		for _, s := range under {
			if failed[s] {
				continue
			}
			pending = true
			done, err := c.repairShard(now, s, wait)
			if err != nil {
				failed[s] = true
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: repairing shard %d: %w", s, err)
				}
				continue
			}
			repaired++
			progressed = true
			if done > doneAt {
				doneAt = done
			}
		}
		if !progressed || !pending {
			return repaired, doneAt, firstErr
		}
	}
}

// repairShard creates ONE new replica of shard s: pick a source (first
// live holder) and a movement-aware target (earliest completion on its
// ingress link, ties to the lowest id), stream the shard through the
// fault.LinkTransfer injection point with seeded deadline-aware backoff,
// build the device and cube set, and atomically promote the target into
// the holder set. Returns the virtual completion time of the promoted
// transfer.
func (c *Cluster) repairShard(now float64, s int, wait func(time.Duration)) (float64, error) {
	bytes := c.shardTables[s].SizeBytes()
	msgs := max(1, tableCopyMessages/len(c.nodes))

	c.mu.Lock()
	c.stats.RepairsStarted++
	lost := !slices.ContainsFunc(c.holders[s], func(h int) bool { return !c.down[h] })
	target := -1
	if !lost {
		target = c.pickTargetLocked(now, s, bytes, msgs)
	}
	if target < 0 {
		c.stats.RepairsFailed++
	}
	c.mu.Unlock()
	if lost {
		return 0, fmt.Errorf("%w (shard %d)", ErrShardLost, s)
	}
	if target < 0 {
		return 0, fmt.Errorf("cluster: shard %d: no live non-holder to replicate onto", s)
	}

	// Stream with retries. Every attempt books the full transfer on the
	// target's ingress link clock — a stream that dies at 90% still
	// occupied the link — and failures retry with seeded exponential
	// backoff until the repair deadline runs out on the virtual clock.
	vnow := now
	deadline := now + c.cfg.RepairDeadlineSeconds
	xfer := c.link.StreamSeconds(bytes, msgs)
	backoff := repairBackoffBase
	var done float64
	for {
		c.mu.Lock()
		start := c.linkClock[target]
		if start < vnow {
			start = vnow
		}
		done = start + xfer
		c.linkClock[target] = done
		c.mu.Unlock()

		ferr := c.cfg.Faults.Check(fault.LinkTransfer, target)
		if ferr == nil {
			break
		}
		vnow = done + c.repairBackoffWait(&backoff, wait)
		if vnow > deadline {
			c.mu.Lock()
			c.stats.RepairsFailed++
			c.mu.Unlock()
			return 0, fmt.Errorf("cluster: shard %d transfer to node %d exceeded repair deadline: %w", s, target, ferr)
		}
	}

	// Build the replica outside every lock: the shard view and its
	// dictionaries are immutable, so this races with nothing.
	dev, cs, err := engine.NewNode(c.shardTables[s], c.pricer.Widths(), c.cfg.CubeLevels, c.cfg.Faults)
	if err != nil {
		c.mu.Lock()
		c.stats.RepairsFailed++
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: building shard %d on node %d: %w", s, target, err)
	}

	// Atomic promotion: the target appears in the holder set and gains
	// residency in one critical section, so a concurrent placement sees
	// the new replica fully or not at all.
	c.mu.Lock()
	died := c.dead[target] || c.down[target]
	if died {
		// The target died while we were streaming: drop the work.
		c.stats.RepairsFailed++
	} else {
		if !c.isHolder(s, target) {
			c.holders[s] = append(c.holders[s], target)
		}
		c.stats.RepairsCompleted++
		c.stats.RepairBytesMoved += bytes
		c.stats.RepairSeconds += xfer
		nd := c.nodes[target]
		nd.mu.Lock()
		nd.devs[s] = dev
		nd.cubes[s] = cs
		nd.resident[s] = true
		nd.mu.Unlock()
	}
	c.mu.Unlock()
	if died {
		return 0, fmt.Errorf("cluster: repair target node %d died mid-transfer (shard %d)", target, s)
	}
	return done, nil
}

// pickTargetLocked chooses the repair destination for shard s
// movement-aware: among live, non-dead, non-holder nodes, the one whose
// ingress link would finish the stream earliest (its link clock plus
// the priced transfer), ties to the lowest id — the same
// earliest-completion rule place() applies to queries. Callers hold
// c.mu.
func (c *Cluster) pickTargetLocked(now float64, s int, bytes int64, msgs int) int {
	xfer := c.link.StreamSeconds(bytes, msgs)
	best := -1
	var bestEnd float64
	for id := range c.nodes {
		if c.down[id] || c.dead[id] || c.isHolder(s, id) {
			continue
		}
		start := c.linkClock[id]
		if start < now {
			start = now
		}
		end := start + xfer
		if best < 0 || end < bestEnd {
			best, bestEnd = id, end
		}
	}
	return best
}

// repairBackoffWait sleeps one jittered backoff step, doubles the base
// for the next (capped), and returns the seconds actually waited. The
// jitter draws from the cluster's seeded repair stream (serialised by
// repairMu), so a (seed, fault-plan) pair yields the same retry
// schedule run after run.
func (c *Cluster) repairBackoffWait(backoff *float64, wait func(time.Duration)) float64 {
	step := *backoff * (0.5 + c.repairRng.Float64())
	wait(time.Duration(step * float64(time.Second)))
	if next := *backoff * 2; next <= repairBackoffCap {
		*backoff = next
	} else {
		*backoff = repairBackoffCap
	}
	return step
}
