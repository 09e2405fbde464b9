// Command olapd serves the hybrid OLAP engine over HTTP.
//
//	olapd -addr :8080 -rows 100000 -wal /var/lib/olapd/ingest.wal
//
//	curl localhost:8080/schema
//	curl -d '{"sql":"SELECT sum(sales) WHERE time.month BETWEEN 0 AND 11"}' localhost:8080/query
//	curl -d '{"sql":"SELECT count(*) GROUP BY geo.region"}' localhost:8080/query
//	curl -d '{"rows":[{"coords":[3,17,5],"measures":[9.5,1],"texts":["acme corp","metropolis"]}]}' localhost:8080/ingest
//	curl localhost:8080/stats
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	olap "hybridolap"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		rows     = flag.Int("rows", 100_000, "fact table rows")
		seed     = flag.Int64("seed", 1, "generation seed")
		live     = flag.Bool("live", false, "enable the streaming write path (POST /ingest)")
		wal      = flag.String("wal", "", "append-log path for crash-recoverable ingest (implies -live)")
		inflight = flag.Int("max-inflight", defaultMaxInflight, "concurrent /query, /explain and /ingest requests")
		queued   = flag.Int("max-queue", defaultMaxQueued, "requests that may wait for a slot before 429s")
		fusion   = flag.Bool("fusion", true, "fuse compatible concurrent GPU-bound queries into shared scans")
		fwindow  = flag.Duration("fusion-window", time.Millisecond, "upper bound on how long the first arrival holds a fusion window; the window closes as soon as no request can still join")
		ffanin   = flag.Int("fusion-fanin", 64, "close a fusion window early at this many members")
		cache    = flag.Bool("cache", true, "enable the epoch-keyed result cache")
		centries = flag.Int("cache-entries", 0, "result cache capacity (0 = default 4096)")
		shards   = flag.Int("shards", 1, "shard the table over this many simulated nodes (static; incompatible with -live/-wal)")
		repl     = flag.Int("replication", 0, "replicas per shard (default min(2, shards))")
		blind    = flag.Bool("movement-blind", false, "cluster planner ignores link cost when placing (ablation)")
		admin    = flag.Bool("admin", false, "expose POST /admin/node/{kill,revive} chaos-drill endpoints")
		partial  = flag.Bool("allow-partial", false, "sharded reads degrade to partial answers (206 + completeness mask) instead of failing when a shard is unavailable")
		repair   = flag.Bool("auto-repair", true, "re-replicate shards automatically after permanent node loss")
		grace    = flag.Duration("kill-grace", 0, "declare a killed node permanently dead after this long down (0 = kills stay transient)")
		evict    = flag.Int("evict-threshold", 0, "declare a node dead after this many quarantines in the eviction window (0 = off)")
	)
	flag.Parse()

	log.Printf("olapd: building system (%d rows)...", *rows)
	db, err := olap.Open(olap.Options{
		Rows: *rows, Seed: *seed, Live: *live, WALPath: *wal,
		Fusion: *fusion, FusionWindow: *fwindow, FusionMaxFanIn: *ffanin,
		ResultCache: *cache, CacheMaxEntries: *centries,
		Shards: *shards, Replication: *repl, MovementBlind: *blind,
		AllowPartial: *partial, AutoRepair: *repair,
		KillGrace: *grace, EvictThreshold: *evict,
	})
	if err != nil {
		log.Fatal("olapd: ", err)
	}
	if db.Clustered() {
		log.Printf("olapd: sharded over %d nodes (replication %d)", *shards, db.Cluster().Config().Replication)
	}
	hs := newServer(db, *inflight, *queued)
	hs.admin = *admin
	srv := &http.Server{
		Addr:    *addr,
		Handler: hs.mux(),
		// A slow or stalled client must not pin a connection (and, for the
		// expensive endpoints, an execution slot) forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// SIGINT/SIGTERM start a graceful shutdown: stop accepting, let
	// in-flight requests (including ingest) finish, then drain the store
	// and flush the append log.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("olapd: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal("olapd: ", err)
	case <-ctx.Done():
	}
	log.Print("olapd: shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("olapd: http shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("olapd: serve: %v", err)
	}
	// Close stops the compactor, waits out in-flight ingest and flushes
	// the WAL, so a restart replays every acknowledged batch.
	if err := db.Close(); err != nil {
		log.Printf("olapd: closing store: %v", err)
	}
	log.Print("olapd: bye")
}
