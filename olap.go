// Package olap is the public facade of a hybrid CPU/GPU OLAP engine that
// reproduces "Task Scheduling for GPU Accelerated Hybrid OLAP Systems with
// Multi-core Support and Text-to-Integer Translation" (Malik, Riha, Shea,
// El-Ghazawi, 2012).
//
// The engine answers aggregate queries from two resources:
//
//   - a CPU partition holding multi-resolution pre-calculated OLAP cubes,
//     aggregated by a parallel worker pool;
//   - a simulated GPU holding a dictionary-encoded columnar fact table,
//     statically split into partitions that execute scan kernels
//     concurrently.
//
// Every query is cost-estimated with the paper's calibrated performance
// models and placed by the Fig. 10 deadline-aware scheduler; queries with
// text predicates pass through a dedicated text-to-integer translation
// partition before reaching the GPU.
//
// Quick start:
//
//	db, err := olap.Open(olap.Options{Rows: 100_000})
//	...
//	res, err := db.Query("SELECT sum(sales) WHERE time.month BETWEEN 0 AND 11")
//	fmt.Println(res.Value, res.Route)
package olap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridolap/internal/cluster"
	"hybridolap/internal/dict"
	"hybridolap/internal/engine"
	"hybridolap/internal/fault"
	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// Options configures Open.
type Options struct {
	// Rows sizes the synthetic fact table (default 50 000).
	Rows int
	// Seed drives data generation (default 1).
	Seed int64
	// CubeLevels selects which resolutions are pre-calculated for the CPU
	// partition (default levels 0 and 1).
	CubeLevels []int
	// CPUThreads selects the CPU performance model and real aggregation
	// parallelism: 1, 4 or 8 (default 8).
	CPUThreads int
	// Deadline is the per-query time constraint T_C (default 1s).
	Deadline time.Duration
	// GPUOnly disables the CPU processing partition.
	GPUOnly bool
	// Live enables the streaming write path: the table becomes the base
	// stripe of an ingest store, Ingest accepts row batches, queries pin
	// epoch snapshots, and a background compactor folds delta stripes.
	Live bool
	// WALPath persists ingested batches to a crash-recoverable append log
	// (implies Live); intact batches replay on Open.
	WALPath string
	// FaultPlan installs a seeded chaos plan across the whole stack (GPU
	// kernels, translation, WAL, compaction). Nil runs fault-free.
	FaultPlan *fault.Plan
	// MaxRetries bounds re-booking of failed GPU attempts (default 2;
	// negative disables retries).
	MaxRetries int
	// Fusion enables the fusion window: compatible GPU-bound scalar queries
	// that are inside Serve together are executed as one shared scan of up
	// to FusionMaxFanIn members (default 64). FusionWindow (default 1ms) is
	// an upper bound on how long the first arrival holds the window, not a
	// fixed wait: the window closes as soon as no request can still join,
	// and never later than the tightest member's deadline allows.
	Fusion         bool
	FusionWindow   time.Duration
	FusionMaxFanIn int
	// ResultCache enables the epoch-keyed result cache every scalar query
	// consults; CacheMaxEntries bounds it (default 4096).
	ResultCache     bool
	CacheMaxEntries int
	// Shards > 1 opens a distributed database: the fact table is
	// range-sharded over that many simulated nodes, each with its own GPU
	// device, cubes and scheduler, and a coordinator plans every shard
	// sub-query with a link cost model folded into deadlines. Answers are
	// bit-identical across every shard count ≥ 2 (and to a one-shard
	// cluster.New): partials fold on one global chunk grid. Shards <= 1
	// opens the single-node engine instead, which folds gpusim's block
	// grid: against it count/min/max are exact and sum/avg agree to
	// rounding (TestShardsAnswerContract). Sharded databases are static:
	// Live/WALPath are rejected, and every query answers through the
	// coordinator (no fusion or result cache across nodes).
	Shards int
	// Replication is how many nodes hold each shard (default min(2,
	// Shards)); replicas serve failover when a node dies.
	Replication int
	// MovementBlind makes the cluster coordinator ignore link cost when
	// PLACING sub-queries (execution still pays it) — the ablation baseline
	// of the cluster benchmark. No effect with Shards <= 1.
	MovementBlind bool
	// AllowPartial degrades sharded reads instead of failing them: when a
	// shard has no live holder the answer covers the surviving shards and
	// Route.Partial carries the completeness mask. No effect with
	// Shards <= 1.
	AllowPartial bool
	// AutoRepair starts the cluster's re-replication controller whenever a
	// node is declared permanently dead, restoring every shard to the
	// replication factor. No effect with Shards <= 1.
	AutoRepair bool
	// KillGrace declares a killed node permanently dead once it has been
	// down this long (0 = kills stay transient forever). No effect with
	// Shards <= 1.
	KillGrace time.Duration
	// EvictThreshold escalates node health: a node quarantined this many
	// times inside the cluster's eviction window is declared permanently
	// dead (0 disables escalation). No effect with Shards <= 1.
	EvictThreshold int
}

// DB is an open hybrid OLAP engine. Exactly one of sys/cl is set: a
// single-node database runs on the engine, a sharded one (Options.Shards
// > 1) on the cluster coordinator.
type DB struct {
	sys    *engine.System
	cl     *cluster.Cluster
	ft     *table.FactTable // cluster mode: the unsharded parent table
	closed atomic.Bool
}

// Open builds a complete system: synthetic fact table on the paper schema,
// simulated Tesla C2070 with the paper's six-partition layout,
// pre-calculated cubes and the Fig. 10 scheduler.
func Open(opts Options) (*DB, error) {
	if opts.Shards > 1 {
		return openCluster(opts)
	}
	spec := engine.SetupSpec{
		Rows:       opts.Rows,
		Seed:       opts.Seed,
		CubeLevels: opts.CubeLevels,
		CPUThreads: opts.CPUThreads,
	}
	if opts.Seed == 0 {
		spec.Seed = 1
	}
	if opts.Deadline > 0 {
		spec.DeadlineSeconds = opts.Deadline.Seconds()
	}
	if opts.GPUOnly {
		spec.Policy = sched.PolicyGPUOnly
	}
	spec.Live = opts.Live
	spec.LiveWALPath = opts.WALPath
	spec.Faults = opts.FaultPlan
	spec.MaxRetries = opts.MaxRetries
	spec.Fusion = opts.Fusion
	spec.FusionWindow = opts.FusionWindow
	spec.FusionMaxFanIn = opts.FusionMaxFanIn
	spec.Cache = opts.ResultCache
	spec.CacheMaxEntries = opts.CacheMaxEntries
	sys, err := engine.Setup(spec)
	if err != nil {
		return nil, err
	}
	if store := sys.Live(); store != nil {
		store.StartCompactor(ingest.CompactorConfig{})
	}
	return &DB{sys: sys}, nil
}

// openCluster builds a sharded database: one synthetic parent table cut
// into Options.Shards range shards, each resident (with replicas) on a
// simulated node owning its own device, cubes and scheduler.
func openCluster(opts Options) (*DB, error) {
	if opts.Live || opts.WALPath != "" {
		return nil, fmt.Errorf("olap: sharded databases are static: Live/WALPath cannot be combined with Shards=%d", opts.Shards)
	}
	if opts.GPUOnly {
		return nil, fmt.Errorf("olap: GPUOnly is a single-node scheduler policy; unsupported with Shards=%d", opts.Shards)
	}
	rows := opts.Rows
	if rows == 0 {
		rows = 50_000
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Shards:         opts.Shards,
		Replication:    opts.Replication,
		CubeLevels:     opts.CubeLevels,
		CPUThreads:     opts.CPUThreads,
		MovementBlind:  opts.MovementBlind,
		Faults:         opts.FaultPlan,
		MaxRetries:     opts.MaxRetries,
		AllowPartial:   opts.AllowPartial,
		AutoRepair:     opts.AutoRepair,
		EvictThreshold: opts.EvictThreshold,
		RepairSeed:     seed,
	}
	if opts.Deadline > 0 {
		cfg.DeadlineSeconds = opts.Deadline.Seconds()
	}
	if opts.KillGrace > 0 {
		cfg.KillGraceSeconds = opts.KillGrace.Seconds()
	}
	cl, err := cluster.New(ft, cfg)
	if err != nil {
		return nil, err
	}
	return &DB{cl: cl, ft: ft}, nil
}

// Clustered reports whether the database is sharded (Options.Shards > 1).
func (db *DB) Clustered() bool { return db.cl != nil }

// Cluster exposes the coordinator for advanced use (node kill switches,
// the closed-loop model runner). Nil for single-node databases.
func (db *DB) Cluster() *cluster.Cluster { return db.cl }

// ClusterStats snapshots the coordinator counters; ok is false for
// single-node databases.
func (db *DB) ClusterStats() (st cluster.Stats, ok bool) {
	if db.cl == nil {
		return cluster.Stats{}, false
	}
	return db.cl.Stats(), true
}

// dicts returns the dictionary set answering this database's decodes.
func (db *DB) dicts() *dict.Set {
	if db.cl != nil {
		return db.ft.Dicts()
	}
	return db.sys.Dicts()
}

// Ingest appends a batch of rows to the live store (Options.Live) and
// returns the epoch in which they became visible. Rows carry finest-level
// integer coordinates, one float per measure and one raw string per text
// column; strings the dictionaries have never seen are appended with
// fresh stable codes.
func (db *DB) Ingest(rows []table.Row) (epoch uint64, err error) {
	if db.cl != nil {
		return 0, fmt.Errorf("olap: sharded database is static; Ingest is unsupported with Shards > 1")
	}
	snap, err := db.sys.Ingest(&ingest.Batch{Rows: rows})
	if err != nil {
		return 0, err
	}
	return snap.Epoch(), nil
}

// IngestStats reports ingest and compaction counters (zero value when the
// database is not live).
func (db *DB) IngestStats() ingest.Stats {
	if db.sys == nil {
		return ingest.Stats{}
	}
	if store := db.sys.Live(); store != nil {
		return store.Stats()
	}
	return ingest.Stats{}
}

// Close stops the background compactor, drains in-flight ingest and
// flushes the append log. A static database closes trivially. Close is
// idempotent: the second and later calls return nil without touching the
// store.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	if db.cl != nil {
		return db.cl.Close()
	}
	if db.sys == nil {
		return nil
	}
	if store := db.sys.Live(); store != nil {
		return store.Close()
	}
	return nil
}

// Degraded reports whether the database is running below full capacity:
// for a live single-node store, a durability failure flipped it
// read-only (Ingest returns ingest.ErrDegraded until reopen); for a
// sharded database, at least one shard sits below the replication
// factor (the repair controller's work queue is non-empty). Queries
// keep working in both cases.
func (db *DB) Degraded() bool {
	if db.cl != nil {
		return len(db.cl.UnderReplicated()) > 0
	}
	if db.sys == nil {
		return false
	}
	if store := db.sys.Live(); store != nil {
		return store.Degraded()
	}
	return false
}

// FromSystem wraps an already-assembled engine (advanced wiring: custom
// tables, devices, estimators or scheduler policies).
func FromSystem(sys *engine.System) *DB { return &DB{sys: sys} }

// System exposes the underlying engine for advanced use. Nil for sharded
// databases, which run on a cluster coordinator instead — see Cluster.
func (db *DB) System() *engine.System { return db.sys }

// Schema returns the fact-table schema (dimension hierarchies, measures
// and text columns) for query construction.
func (db *DB) Schema() *table.Schema {
	if db.cl != nil {
		return db.ft.Schema()
	}
	return db.sys.Config().Table.Schema()
}

// Route says which partition answered a query.
type Route struct {
	// Kind is "cpu" or "gpu[i]" for a directly executed query,
	// "fused gpu[i]" for shared-scan members and "cache gpu[i]" /
	// "cache+fold gpu[i]" for exact and interval-subsumed cache answers
	// (the queue is the placement that produced the bits).
	Kind string
	// Translated reports whether text-to-integer translation ran.
	Translated bool
	// Fused/FanIn report shared-scan execution; Cached/Subsumed report
	// result-cache answers.
	Fused    bool
	FanIn    int
	Cached   bool
	Subsumed bool
	// Partial is non-nil when a sharded database answered in degraded
	// mode (Options.AllowPartial): the mask says exactly which slice of
	// the global chunk grid the answer covers and which shards were
	// unavailable. Full answers leave it nil.
	Partial *cluster.Completeness
}

// Result is a single query's answer.
type Result struct {
	// Value is the aggregate (sum, count, min, max or avg).
	Value float64
	// Rows is the number of fact rows (or cube cells' source rows) that
	// matched the predicates.
	Rows int64
	// Groups holds a grouped query's labelled rows, sorted by group key;
	// Value and Rows are then zero.
	Groups []GroupRow
	// Route identifies the partition that produced the answer.
	Route Route
	// Latency is the wall-clock time from submission to answer.
	Latency time.Duration
}

// How the serving path answered, the prefix of Route.Kind.
const (
	routeAlone  = iota // "": executed on its own
	routeFused         // "fused ": a member of a shared scan
	routeCached        // "cache ": an exact cache hit
	routeFolded        // "cache+fold ": folded from a cached anchor
	numRoutes
)

var routePrefixes = [numRoutes]string{"", "fused ", "cache ", "cache+fold "}

// routeKinds spells Route.Kind ahead of time for every route from the
// queues cpu, trans and the named GPU partitions, so answering builds no
// string.
var routeKinds = func() map[sched.QueueRef][numRoutes]string {
	queues := []sched.QueueRef{{Kind: sched.QueueCPU}, {Kind: sched.QueueCPU, Index: -1}}
	for i := 0; i < sched.NamedGPUQueues; i++ {
		queues = append(queues, sched.QueueRef{Kind: sched.QueueGPU, Index: i})
	}
	kinds := make(map[sched.QueueRef][numRoutes]string, len(queues))
	for _, q := range queues {
		var k [numRoutes]string
		for r, prefix := range routePrefixes {
			k[r] = prefix + q.String()
		}
		kinds[q] = k
	}
	return kinds
}()

// routeKind returns the Route.Kind of an answer by route from queue q.
func routeKind(route int, q sched.QueueRef) string {
	if k, ok := routeKinds[q]; ok {
		return k[route]
	}
	return routePrefixes[route] + q.String()
}

// newResult builds the answer Serve returns; kind names the partition (see
// Route.Kind).
func newResult(q *query.Query, value float64, rows int64, kind string, latency time.Duration) Result {
	return Result{
		Value: value, Rows: rows, Latency: latency,
		Route: Route{Kind: kind, Translated: q.GPUOnly()},
	}
}

// Query parses one SQL-like query (scalar or GROUP BY) and answers it
// through Serve: scheduled with the paper's algorithm and executed on the
// chosen partition for real, unless the result cache answers it or it
// joins a shared scan. See query.Parse for the grammar.
func (db *DB) Query(sql string) (Result, error) {
	q, err := db.Parse(sql)
	if err != nil {
		return Result{}, err
	}
	return db.serve(q) // Parse validated it
}

// Serve answers one query through the high-QPS serving path. A scalar
// query consults the epoch-keyed result cache first (Options.ResultCache)
// and fuses with compatible concurrent GPU-bound queries into shared scans
// (Options.Fusion); with both disabled it is scheduled and executed alone.
// A grouped query is scheduled and executed uncached, its rows in
// Result.Groups. Every entry point (Query, ServeQuery, QueryGroups, Batch)
// answers through it. Safe for concurrent use — concurrency is what fills
// fusion windows.
func (db *DB) Serve(q *query.Query) (Result, error) {
	if err := q.Validate(db.Schema()); err != nil {
		return Result{}, err
	}
	return db.serve(q)
}

// serve is Serve for a query already validated against the schema.
func (db *DB) serve(q *query.Query) (Result, error) {
	if db.cl != nil {
		// Fusion windows and the result cache are single-node machinery;
		// a sharded database serves through the coordinator directly.
		r, err := db.cl.Query(q)
		if err != nil {
			return Result{}, err
		}
		res := newResult(q, r.Value, r.Rows, fmt.Sprintf("cluster[%d]", db.cl.Shards()), r.Latency)
		res.Groups = db.labelGroupRows(q, r.Groups)
		res.Route.Partial = r.Partial
		return res, nil
	}
	o, err := db.sys.Serve(q)
	if err != nil {
		return Result{}, err
	}
	route := routeAlone
	switch {
	case o.Subsumed:
		route = routeFolded
	case o.CacheHit:
		route = routeCached
	case o.Fused:
		route = routeFused
	}
	res := newResult(q, o.Result.Value, o.Result.Rows, routeKind(route, o.Queue), o.Latency)
	res.Groups = db.labelGroupRows(q, o.Groups)
	res.Route.Fused, res.Route.FanIn = o.Fused, o.FanIn
	res.Route.Cached, res.Route.Subsumed = o.CacheHit, o.Subsumed
	return res, nil
}

// ServeQuery is Query under the serving path's name.
func (db *DB) ServeQuery(sql string) (Result, error) { return db.Query(sql) }

// CacheStats reports the result-cache counters (zero value when the cache
// is disabled or the database is sharded).
func (db *DB) CacheStats() engine.CacheStats {
	if db.sys == nil {
		return engine.CacheStats{}
	}
	return db.sys.CacheStats()
}

// Batch answers a set of queries concurrently, one Serve per query on its
// own goroutine, and returns the results in input order; on failure, the
// first error in input order. Members of one batch can share scans in a
// fusion window (Options.Fusion).
func (db *DB) Batch(qs []*query.Query) ([]Result, error) {
	out := make([]Result, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = db.Serve(q)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("olap: query %d: %w", qs[i].ID, err)
		}
	}
	return out, nil
}

// Parse exposes the query parser against this database's schema.
func (db *DB) Parse(sql string) (*query.Query, error) {
	return query.Parse(sql, db.Schema())
}

// Explain prices and places a query without executing it: the scheduler's
// step-2 estimates (T_CPU, per-partition T_GPU, T_TRANS) and the partition
// Submit would choose right now.
func (db *DB) Explain(sql string) (*engine.Explanation, error) {
	q, err := db.Parse(sql)
	if err != nil {
		return nil, err
	}
	if db.cl != nil {
		return nil, fmt.Errorf("olap: Explain prices single-node placement; unsupported with Shards > 1")
	}
	return db.sys.Explain(q)
}

// NewGenerator builds a workload generator bound to this database's schema
// and dictionaries.
func (db *DB) NewGenerator(cfg query.GenConfig) (*query.Generator, error) {
	cfg.Schema = db.Schema()
	if cfg.Dicts == nil {
		cfg.Dicts = db.dicts()
	}
	return query.NewGenerator(cfg)
}
