// Package cluster scales the paper's single-node hybrid OLAP engine out
// to N simulated nodes: the fact table is range-sharded over the nodes,
// each node owns its own simulated GPU devices, per-shard cube sets and
// scheduler instance, and a coordinator plans every shard sub-query with
// a link cost model (bytes moved x bandwidth + latency) folded into the
// same deadline estimates the paper folds kernel time into — placement
// trades movement against per-node queue slack exactly as the paper
// trades CPU against GPU.
//
// Determinism is load-bearing. Answers must be bit-identical for ANY
// shard count, so execution happens on a fixed global chunk grid: the
// table is cut into Config.Chunks chunks whose boundaries depend only on
// the total row count, every shard executes its chunks as independent
// single-pass partials (gpusim.ExecuteChunks), and the coordinator folds
// ALL chunk partials flat, in global chunk order. The fold tree is then a
// pure function of (table, query, Chunks) — never of N, replica choice,
// failover history or goroutine interleaving.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// DefaultChunks is the default global merge-grid size. It must be
// divisible by every shard count in use; 64 covers the powers of two up
// to 64 nodes.
const DefaultChunks = 64

// Config sizes and wires a cluster.
type Config struct {
	// Shards is the number of shards and nodes (one primary shard per
	// node; default 1).
	Shards int
	// Replication is the number of nodes holding each shard (default
	// min(2, Shards); clamped to [1, Shards]). Shard s is primary on node
	// s and replicated on nodes (s+1)%N, (s+2)%N, ...
	Replication int
	// Chunks is the fixed global merge grid (default DefaultChunks). It
	// must be a multiple of Shards: chunk boundaries depend only on the
	// total row count, so shard boundaries nest into the grid and the
	// coordinator's chunk-order fold is identical for every shard count.
	Chunks int
	// CPUThreads selects each node's CPU aggregation model (default 8).
	CPUThreads int
	// CubeLevels are materialised per shard on every holder (default
	// {0, 1}), so the node CPU path can answer order-insensitive
	// aggregates locally.
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
	// mask (chunks answered / total, missing shards) instead of
	// ErrShardUnavailable. Any other shard error still fails the query.
	AllowPartial bool
}

// span is a half-open global row interval.
type span struct {
	lo, hi int
}

// node is one simulated cluster member: its own scheduler (queue clocks
// and partition health), one simulated GPU device per locally held shard
// replica (the devices share the node's SM partitions, so they share one
// set of scheduler queues), and per-shard cube sets for the CPU path.
type node struct {
	id int

	// mu serialises all scheduler access and guards devs/cubes. Lock
	// order: Cluster.mu before node.mu, never the reverse.
	mu    sync.Mutex
	sched *sched.Scheduler
	// devs maps shard -> device. Resident shards are loaded at
	// construction; a non-resident entry appears when the coordinator
	// places a sub-query here and the shard's columns are fetched from a
	// live holder (the fetch is what LinkSeconds priced).
	devs map[int]*gpusim.Device
	// cubes maps RESIDENT shard -> cube set. Fetched shards get no cubes:
	// the CPU path is only offered where the data already lives.
	cubes    map[int]*cube.Set
	resident map[int]bool
}

// Cluster is the coordinator plus its nodes.
type Cluster struct {
	cfg       Config
	ft        *table.FactTable
	schema    *table.Schema
	totalCols int

	grid        []span                // global chunk boundaries, len = cfg.Chunks
	shardSpans  []span                // per-shard global row range
	shardChunks [][]gpusim.ChunkRange // per-shard chunk ranges in LOCAL rows
	shardTables []*table.FactTable    // shard views sharing the parent's dictionaries
	holders     [][]int               // per-shard holder nodes, primary first
	nodes       []*node
	layout      []int                // every node's GPU partition layout: PaperLayout
	est         *perfmodel.Estimator // PaperEstimator
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
	Chunks      int `json:"chunks"`
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
	if cfg.Chunks <= 0 {
		cfg.Chunks = DefaultChunks
	}
	if cfg.Chunks%cfg.Shards != 0 {
		return nil, fmt.Errorf("%w: Chunks (%d) must be a multiple of Shards (%d) so shard boundaries nest into the global merge grid",
			ErrConfig, cfg.Chunks, cfg.Shards)
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
	if cfg.CPUThreads == 0 {
		cfg.CPUThreads = 8
	}
	if cfg.CubeLevels == nil {
		cfg.CubeLevels = []int{0, 1}
	}
	if cfg.DeadlineSeconds == 0 {
		cfg.DeadlineSeconds = 1.0
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
		totalCols: ft.Schema().TotalColumns(),
		layout:    gpusim.PaperLayout(),
		est:       perfmodel.PaperEstimator(),
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
	c.stats.Chunks = cfg.Chunks

	// Global chunk grid: boundaries are a pure function of (rows, Chunks),
	// NEVER of the shard count — floor(ci*rows/Chunks) nests for every
	// divisor of Chunks, which is what keeps the coordinator's fold order
	// shard-count-invariant.
	c.grid = make([]span, cfg.Chunks)
	for ci := range c.grid {
		c.grid[ci] = span{lo: ci * rows / cfg.Chunks, hi: (ci + 1) * rows / cfg.Chunks}
	}

	perShard := cfg.Chunks / n
	c.shardSpans = make([]span, n)
	c.shardChunks = make([][]gpusim.ChunkRange, n)
	c.shardTables = make([]*table.FactTable, n)
	c.holders = make([][]int, n)
	for s := 0; s < n; s++ {
		lo := c.grid[s*perShard].lo
		hi := c.grid[(s+1)*perShard-1].hi
		c.shardSpans[s] = span{lo: lo, hi: hi}
		local := make([]gpusim.ChunkRange, perShard)
		for k := 0; k < perShard; k++ {
			g := c.grid[s*perShard+k]
			local[k] = gpusim.ChunkRange{Lo: g.lo - lo, Hi: g.hi - lo}
		}
		c.shardChunks[s] = local
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
			id:       id,
			devs:     make(map[int]*gpusim.Device),
			cubes:    make(map[int]*cube.Set),
			resident: make(map[int]bool),
		}
		sc, err := sched.New(sched.Config{
			GPUWidths:           gpusim.PaperLayout(),
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
			dev, err := c.buildDevice(s)
			if err != nil {
				return nil, err
			}
			nd.devs[s] = dev
			cs, err := cube.BuildSet(c.shardTables[s], cfg.CubeLevels, 0, cube.Config{})
			if err != nil {
				return nil, fmt.Errorf("cluster: building shard %d cubes on node %d: %w", s, id, err)
			}
			nd.cubes[s] = cs
			nd.resident[s] = true
		}
	}
	return c, nil
}

// buildDevice loads shard s's table into a fresh simulated device with
// the configured partition layout and fault plan.
func (c *Cluster) buildDevice(s int) (*gpusim.Device, error) {
	dev, err := gpusim.NewDevice(gpusim.TeslaC2070())
	if err != nil {
		return nil, err
	}
	if err := dev.LoadTable(c.shardTables[s]); err != nil {
		return nil, err
	}
	if err := dev.Partition(c.layout); err != nil {
		return nil, err
	}
	dev.SetFaults(c.cfg.Faults)
	return dev, nil
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
	if c.cfg.MaxRetries == 0 {
		return 2
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
	nd.resident = make(map[int]bool)
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

// NodeHealth snapshots every node's coordinator-level health state.
func (c *Cluster) NodeHealth() []sched.HealthState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.health.States()
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
// totals and health.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	out := c.stats
	out.UnderReplicatedShards = len(c.underReplicatedLocked())
	states := c.health.States()
	c.mu.Unlock()

	out.PerNode = make([]NodeStats, len(c.nodes))
	for i, nd := range c.nodes {
		nd.mu.Lock()
		st := nd.sched.Stats()
		parts := nd.sched.HealthStates()
		shards := make([]int, 0, len(nd.resident))
		for s := range nd.resident {
			shards = append(shards, s)
		}
		nd.mu.Unlock()
		sortInts(shards)
		var gpu int64
		for _, g := range st.ToGPU {
			gpu += g
		}
		ps := make([]string, len(parts))
		for k, p := range parts {
			ps[k] = p.String()
		}
		out.PerNode[i] = NodeStats{
			Node: i, Shards: shards, Health: states[i].String(),
			Submitted: st.Submitted, ToCPU: st.ToCPU, ToGPU: gpu,
			Partition: ps,
		}
	}
	return out
}

// sortInts is a tiny insertion sort (shards-per-node is small; avoids an
// import for one call site).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
