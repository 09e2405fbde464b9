// Package cluster scales the paper's single-node hybrid OLAP engine out
// to N simulated nodes: the fact table is range-sharded over the nodes,
// each node owns its own simulated GPU devices, per-shard cube sets and
// scheduler instance, and a coordinator plans every shard sub-query with
// a link cost model (bytes moved x bandwidth + latency) folded into the
// same deadline estimates the paper folds kernel time into — placement
// trades movement against per-node queue slack exactly as the paper
// trades CPU against GPU.
//
// Answers are bit-identical for ANY shard count. Shard s holds the global
// rows [s·rows/N, (s+1)·rows/N), answers its sub-query with one unfinalised
// partial (the device's Execute over its resident shard, or a cube walk of
// its cube set), and the coordinator merges the shards' partials. Partials
// are exact integer units, so the merge order — shard count, replica
// choice, failover history, goroutine interleaving — never moves a bit.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/engine"
	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// Config sizes and wires a cluster.
type Config struct {
	// Shards is the number of shards and nodes (one primary shard per
	// node; default 1).
	Shards int
	// Replication is the number of nodes holding each shard (default
	// min(2, Shards); clamped to [1, Shards]). Shard s is primary on node
	// s and replicated on nodes (s+1)%N, (s+2)%N, ...
	Replication int
	// CPUThreads selects each node's CPU aggregation model (default 8);
	// New rejects a count the estimator has no CPU model for.
	CPUThreads int
	// CubeLevels are materialised per shard on every holder (default
	// {0, 1}), so the node CPU path can answer what the cubes cover
	// locally.
	CubeLevels []int
	// DeadlineSeconds is T_C for every shard sub-query (default 1.0).
	DeadlineSeconds float64
	// Link prices inter-node movement (default PaperLink: gigabit
	// Ethernet). The zero value selects the default; a genuinely free
	// link is not expressible (it would make placement movement-blind —
	// use MovementBlind for that ablation).
	Link perfmodel.LinkModel
	// MovementBlind makes the coordinator DECIDE placement ignoring link
	// cost while execution still pays it — the ablation baseline the
	// cluster benchmark compares the movement-aware planner against.
	MovementBlind bool
	// Faults installs a seeded chaos plan: NodeExec fires at sub-query
	// dispatch (simulated node crash), GPUExec inside each node's device.
	Faults *fault.Plan
	// MaxRetries bounds failover attempts per shard sub-query (default 2;
	// negative disables retries).
	MaxRetries int
	// QuarantineThreshold configures node health tracking (default 3
	// consecutive failures; a quarantined node re-probes after the health
	// tracker's 5 s), the same state machine the scheduler runs over GPU
	// partitions.
	QuarantineThreshold int
	// EvictThreshold escalates the health machine: a node quarantined
	// this many times within 60 s is declared dead (its
	// shards become under-replicated and the repair controller takes
	// over). 0 — the default — disables escalation, preserving the PR-9
	// behaviour where a flapping node only ever cycles through
	// quarantine.
	EvictThreshold int
	// KillGraceSeconds declares a killed node dead once it has been down
	// this long: KillNode models a transient crash, the grace period is
	// what turns it into a permanent loss. 0 — the default — means kills
	// stay transient forever (PR-9 semantics); tests and admin drills
	// that want determinism call DeclareDead directly.
	KillGraceSeconds float64
	// AutoRepair starts the re-replication controller automatically
	// whenever a node is declared dead. When false, repair runs only on
	// an explicit Repair() call.
	AutoRepair bool
	// RepairDeadlineSeconds bounds the per-shard retry loop against
	// injected link faults (default 30, on the virtual clock).
	RepairDeadlineSeconds float64
	// RepairSeed seeds the repair controller's backoff jitter stream.
	RepairSeed int64
	// AllowPartial degrades reads instead of failing them: a shard with
	// no live holder is skipped and the answer carries a Completeness
	// mask (rows answered / total, missing shards) instead of
	// ErrShardUnavailable. Any other shard error still fails the query.
	AllowPartial bool
}

// node is one simulated cluster member: its own scheduler (queue clocks
// and partition health), one simulated GPU device per locally held shard
// replica (the devices share the node's SM partitions, so they share one
// set of scheduler queues), and per-shard cube sets for the CPU path.
type node struct {
	id    int
	sched *sched.Scheduler // serialises itself

	// mu guards devs and cubes. Lock order: Cluster.mu before node.mu,
	// never the reverse.
	mu sync.Mutex
	// devs maps shard -> device. Resident shards are loaded at
	// construction; a non-resident entry appears when the coordinator
	// places a sub-query here and the shard's columns are fetched from a
	// live holder (the fetch is what LinkSeconds priced).
	devs map[int]*gpusim.Device
	// cubes maps RESIDENT shard -> cube set: it has an entry exactly when
	// the node is in the shard's holder set. Fetched shards get no cubes:
	// the CPU path is only offered where the data already lives.
	cubes map[int]*cube.Set
}

// Cluster is the coordinator plus its nodes.
type Cluster struct {
	cfg    Config
	ft     *table.FactTable
	schema *table.Schema

	shardTables []*table.FactTable // shard views sharing the parent's dictionaries
	holders     [][]int            // per-shard holder nodes, primary first
	nodes       []*node
	pricer      *engine.Pricer // every node's step 2; its widths are every node's GPU layout
	link        perfmodel.LinkModel
	start       time.Time

	// mu guards coordinator state: node health, kill switches, link
	// clocks and stats. Lock order: mu before any node.mu.
	mu        sync.Mutex
	health    *sched.HealthTracker
	down      []bool
	dead      []bool    // permanently lost; implies down until revived empty
	killedAt  []float64 // virtual kill time for the grace sweep; -1 when up
	linkClock []float64 // per node, virtual time its ingress link frees
	stats     Stats

	// repairMu serialises repair passes (one controller at a time);
	// repairRng is its seeded backoff-jitter stream, only touched under
	// repairMu. repairWG tracks auto-repair goroutines so Close (and
	// tests) can quiesce.
	repairMu  sync.Mutex
	repairRng *rand.Rand
	repairWG  sync.WaitGroup
}

// NodeStats is one node's slice of a Stats snapshot.
type NodeStats struct {
	Node      int      `json:"node"`
	Shards    []int    `json:"shards"` // resident shards in ascending order
	Health    string   `json:"health"`
	Submitted int64    `json:"submitted"`
	ToCPU     int64    `json:"to_cpu"`
	ToGPU     int64    `json:"to_gpu"`
	Partition []string `json:"partition_health"` // per-GPU-partition health
}

// Stats aggregates coordinator counters.
type Stats struct {
	Shards      int `json:"shards"`
	Replication int `json:"replication"`
	// Queries counts scalar cluster queries; GroupQueries grouped ones.
	Queries      int64 `json:"queries"`
	GroupQueries int64 `json:"group_queries"`
	// SubQueries counts shard sub-queries dispatched (successful
	// attempts); Local ran on a holder of the shard, Remote on a
	// non-holder after fetching the shard's columns.
	SubQueries       int64 `json:"sub_queries"`
	LocalSubQueries  int64 `json:"local_sub_queries"`
	RemoteSubQueries int64 `json:"remote_sub_queries"`
	// BytesMoved and MoveSeconds total the priced shard-column fetches.
	BytesMoved  int64   `json:"bytes_moved"`
	MoveSeconds float64 `json:"move_seconds"`
	// NodeFailures counts failed dispatches (injected node crashes and
	// execution errors); Failovers the re-plans that followed.
	NodeFailures int64 `json:"node_failures"`
	Failovers    int64 `json:"failovers"`
	// NodeQuarantines / NodeReprobes mirror the scheduler's partition
	// counters at node granularity.
	NodeQuarantines int64 `json:"node_quarantines"`
	NodeReprobes    int64 `json:"node_reprobes"`
	// NodesEvicted counts nodes declared permanently dead (quarantine
	// escalation, kill-grace expiry, or an explicit DeclareDead).
	NodesEvicted int64 `json:"nodes_evicted"`
	// UnderReplicatedShards is a gauge (filled by Stats()): shards whose
	// holder set is below the configured replication factor right now.
	UnderReplicatedShards int `json:"under_replicated_shards"`
	// Repair controller counters. RepairsStarted counts per-shard repair
	// attempts entered; Completed/Failed their outcomes. Bytes and
	// seconds total only COMPLETED transfers — a failed stream congests
	// the link clock but moves no durable data.
	RepairsStarted   int64   `json:"repairs_started"`
	RepairsCompleted int64   `json:"repairs_completed"`
	RepairsFailed    int64   `json:"repairs_failed"`
	RepairBytesMoved int64   `json:"repair_bytes_moved"`
	RepairSeconds    float64 `json:"repair_seconds"`
	// PartialAnswers counts degraded reads: queries answered with a
	// completeness mask because a shard had no live holder.
	PartialAnswers int64 `json:"partial_answers"`
	// PerNode snapshots each node (filled by Stats()).
	PerNode []NodeStats `json:"nodes"`
}

// ErrConfig is the sentinel every Config-validation failure wraps;
// callers test errors.Is(err, cluster.ErrConfig).
var ErrConfig = errors.New("cluster: invalid configuration")

// New shards ft over cfg.Shards simulated nodes. The parent table is
// retained for translation (shard views share its dictionary set).
func New(ft *table.FactTable, cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > cfg.Shards {
		cfg.Replication = cfg.Shards
	}
	if cfg.EvictThreshold < 0 {
		return nil, fmt.Errorf("%w: EvictThreshold (%d) must be >= 0", ErrConfig, cfg.EvictThreshold)
	}
	if cfg.KillGraceSeconds < 0 {
		return nil, fmt.Errorf("%w: KillGraceSeconds (%v) must be >= 0", ErrConfig, cfg.KillGraceSeconds)
	}
	if cfg.RepairDeadlineSeconds == 0 {
		cfg.RepairDeadlineSeconds = 30
	}
	var layout []int
	var est *perfmodel.Estimator
	engine.Defaults{
		CPUThreads: &cfg.CPUThreads, CubeLevels: &cfg.CubeLevels, DeadlineSeconds: &cfg.DeadlineSeconds,
		MaxRetries: &cfg.MaxRetries, Layout: &layout, Estimator: &est,
	}.Fill()
	pricer, err := engine.NewPricer(est, cfg.CPUThreads, layout, ft.Schema(), true)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	link := cfg.Link
	if link == (perfmodel.LinkModel{}) {
		link = perfmodel.PaperLink()
	}

	n := cfg.Shards
	rows := ft.Rows()
	c := &Cluster{
		cfg:       cfg,
		ft:        ft,
		schema:    ft.Schema(),
		pricer:    pricer,
		link:      link,
		start:     time.Now(),
		health:    sched.NewHealthTracker(n, cfg.QuarantineThreshold, 0),
		down:      make([]bool, n),
		dead:      make([]bool, n),
		killedAt:  make([]float64, n),
		linkClock: make([]float64, n),
		// olaplint:seededrand repair backoff jitter (deterministic drills)
		repairRng: rand.New(rand.NewSource(cfg.RepairSeed*2_000_033 + 17)),
	}
	c.health.SetEviction(cfg.EvictThreshold, 0) // the tracker's 60 s window
	for i := range c.killedAt {
		c.killedAt[i] = -1
	}
	c.stats.Shards = n
	c.stats.Replication = cfg.Replication

	c.shardTables = make([]*table.FactTable, n)
	c.holders = make([][]int, n)
	for s := 0; s < n; s++ {
		lo, hi := s*rows/n, (s+1)*rows/n
		st, err := table.Slice(ft, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("cluster: sharding rows [%d,%d): %w", lo, hi, err)
		}
		c.shardTables[s] = st
		hs := make([]int, cfg.Replication)
		for k := range hs {
			hs[k] = (s + k) % n
		}
		c.holders[s] = hs
	}

	c.nodes = make([]*node, n)
	for id := 0; id < n; id++ {
		nd := &node{
			id:    id,
			devs:  make(map[int]*gpusim.Device),
			cubes: make(map[int]*cube.Set),
		}
		sc, err := sched.New(sched.Config{
			GPUWidths:           layout,
			DeadlineSeconds:     cfg.DeadlineSeconds,
			QuarantineThreshold: cfg.QuarantineThreshold,
		})
		if err != nil {
			return nil, err
		}
		nd.sched = sc
		c.nodes[id] = nd
	}
	for s := 0; s < n; s++ {
		for _, id := range c.holders[s] {
			nd := c.nodes[id]
			dev, cs, err := engine.NewNode(c.shardTables[s], layout, cfg.CubeLevels, cfg.Faults)
			if err != nil {
				return nil, fmt.Errorf("cluster: building shard %d on node %d: %w", s, id, err)
			}
			nd.devs[s] = dev
			nd.cubes[s] = cs
		}
	}
	return c, nil
}

// Config returns the resolved configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.nodes) }

// nowS is the coordinator's clock in seconds since construction — the
// virtual time base every scheduler and the health tracker share.
func (c *Cluster) nowS() float64 { return time.Since(c.start).Seconds() }

// deadlineSeconds returns the resolved per-sub-query deadline.
func (c *Cluster) deadlineSeconds() float64 { return c.cfg.DeadlineSeconds }

// maxRetries returns the failover budget (negative config disables).
func (c *Cluster) maxRetries() int {
	if c.cfg.MaxRetries < 0 {
		return 0
	}
	return c.cfg.MaxRetries
}

// KillNode marks a node down: it takes no placements and serves no
// replica fetches until ReviveNode. Unlike a quarantine (which re-probes
// on a timer), a kill is absolute — the switch chaos tests flip to model
// a hard crash deterministically. A kill is TRANSIENT (the node keeps
// its data and rejoins intact on revive) unless Config.KillGraceSeconds
// elapses first, at which point the grace sweep declares it dead.
func (c *Cluster) KillNode(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: node %d out of range", id)
	}
	c.mu.Lock()
	if !c.down[id] {
		c.down[id] = true
		c.killedAt[id] = c.nowS()
	}
	c.mu.Unlock()
	return nil
}

// ReviveNode clears a node's kill switch. Reviving a node that was
// merely down restores it with its data intact. Reviving a DEAD node
// readmits it as an empty member — its replicas were permanently lost
// when it was declared dead, so it rejoins holding nothing and becomes
// a candidate target for the repair controller.
func (c *Cluster) ReviveNode(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: node %d out of range", id)
	}
	c.mu.Lock()
	c.down[id] = false
	c.killedAt[id] = -1
	if c.dead[id] {
		c.dead[id] = false
		c.health.Revive(id)
	}
	c.mu.Unlock()
	return nil
}

// DeclareDead declares a node permanently lost right now, bypassing the
// kill grace period: the node is removed from every shard's holder set,
// its local replicas are dropped, and every shard it held is left
// under-replicated for the repair controller. Chaos drills and the
// olapd admin surface use this for deterministic permanent-loss tests;
// the grace sweep and quarantine escalation call the same transition.
func (c *Cluster) DeclareDead(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: node %d out of range", id)
	}
	c.mu.Lock()
	changed := c.declareDeadLocked(id)
	c.mu.Unlock()
	if changed {
		c.kickAutoRepair()
	}
	return nil
}

// declareDeadLocked is DeclareDead's body under c.mu: marks the node
// dead+down, strips it from every holder set, and drops its residency
// (the data is gone — that is what "permanent" means). Reports whether
// the node was newly declared. Lock order: c.mu is held; node.mu is
// taken inside, which is the sanctioned order.
func (c *Cluster) declareDeadLocked(id int) bool {
	if c.dead[id] {
		return false
	}
	c.dead[id] = true
	c.down[id] = true
	c.stats.NodesEvicted++
	for s := range c.holders {
		hs := c.holders[s][:0]
		for _, h := range c.holders[s] {
			if h != id {
				hs = append(hs, h)
			}
		}
		c.holders[s] = hs
	}
	nd := c.nodes[id]
	nd.mu.Lock()
	nd.devs = make(map[int]*gpusim.Device)
	nd.cubes = make(map[int]*cube.Set)
	nd.mu.Unlock()
	return true
}

// sweepGraceLocked promotes expired transient kills to permanent loss
// under c.mu, returning whether any node was newly declared dead. A
// no-op unless Config.KillGraceSeconds is positive.
func (c *Cluster) sweepGraceLocked(now float64) bool {
	if c.cfg.KillGraceSeconds <= 0 {
		return false
	}
	any := false
	for id := range c.down {
		if c.down[id] && !c.dead[id] && c.killedAt[id] >= 0 &&
			now-c.killedAt[id] >= c.cfg.KillGraceSeconds {
			if c.declareDeadLocked(id) {
				any = true
			}
		}
	}
	return any
}

// kickAutoRepair launches a background repair pass when Config.AutoRepair
// is set. The pass is tracked on repairWG so Close can quiesce it.
func (c *Cluster) kickAutoRepair() {
	if !c.cfg.AutoRepair {
		return
	}
	c.repairWG.Add(1)
	go func() {
		defer c.repairWG.Done()
		_, _ = c.Repair()
	}()
}

// Close waits for any in-flight auto-repair passes to finish. The
// cluster holds no external resources; Close exists so tests and the
// engine facade can quiesce background repair deterministically.
func (c *Cluster) Close() error {
	c.repairWG.Wait()
	return nil
}

// underReplicatedLocked lists shards whose holder set is below the
// replication factor, ascending. Callers hold c.mu.
func (c *Cluster) underReplicatedLocked() []int {
	var out []int
	for s := range c.holders {
		if len(c.holders[s]) < c.cfg.Replication {
			out = append(out, s)
		}
	}
	return out
}

// UnderReplicated lists the shards currently below the replication
// factor — the repair controller's work queue and the /healthz degraded
// signal.
func (c *Cluster) UnderReplicated() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.underReplicatedLocked()
}

// Stats snapshots the coordinator counters plus each node's scheduler
// totals, health and holdings.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	out := c.stats
	out.UnderReplicatedShards = len(c.underReplicatedLocked())
	states := c.health.States()
	out.PerNode = make([]NodeStats, len(c.nodes))
	for i := range out.PerNode {
		out.PerNode[i] = NodeStats{Node: i, Shards: []int{}, Health: states[i].String()}
	}
	for s, hs := range c.holders {
		for _, h := range hs {
			out.PerNode[h].Shards = append(out.PerNode[h].Shards, s)
		}
	}
	c.mu.Unlock()

	for i, nd := range c.nodes {
		st := nd.sched.Stats()
		ns := &out.PerNode[i]
		ns.Submitted, ns.ToCPU = st.Submitted, st.ToCPU
		for _, g := range st.ToGPU {
			ns.ToGPU += g
		}
		parts := nd.sched.HealthStates()
		ns.Partition = make([]string, len(parts))
		for k, p := range parts {
			ns.Partition[k] = p.String()
		}
	}
	return out
}
