// Command olapcli is an interactive query shell over a demo hybrid OLAP
// system: it parses SQL-like queries, schedules each with the paper's
// Fig. 10 algorithm and reports the answer plus which partition served it.
//
// Usage:
//
//	olapcli -rows 100000 -live
//	olapcli -server localhost:8080
//	> SELECT sum(sales) WHERE time.month BETWEEN 0 AND 11
//	> \ingest 3,17,5 | 9.5,1 | acme corp, metropolis
//	> \schema
//	> \stats
//	> \quit
//
// With -server the shell embeds no engine: every command becomes an HTTP
// request against a running olapd, and non-2xx responses print with their
// status code and body.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	olap "hybridolap"
	"hybridolap/internal/engine"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// session is what the REPL loop drives: either a local embedded engine or
// a remote olapd reached over HTTP.
type session interface {
	query(sql string)
	explain(sql string)
	ingest(arg string)
	schema()
	stats()
	close()
}

func main() {
	var (
		rows   = flag.Int("rows", 100_000, "fact table rows")
		seed   = flag.Int64("seed", 1, "generation seed")
		live   = flag.Bool("live", false, "enable the streaming write path (\\ingest)")
		wal    = flag.String("wal", "", "append-log path for crash-recoverable ingest (implies -live)")
		shards = flag.Int("shards", 1, "shard the table over this many simulated nodes (static; incompatible with -live/-wal)")
		server = flag.String("server", "", "olapd address (e.g. localhost:8080); talk HTTP instead of embedding an engine")
	)
	flag.Parse()

	var sess session
	if *server != "" {
		r := newRemote(*server)
		fmt.Printf("connected to %s\n", r.base)
		sess = r
	} else {
		fmt.Printf("building demo system (%d rows)...\n", *rows)
		db, err := olap.Open(olap.Options{
			Rows: *rows, Seed: *seed, Live: *live, WALPath: *wal,
			Fusion: true, ResultCache: true, Shards: *shards,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapcli:", err)
			os.Exit(1)
		}
		sess = &local{db: db}
	}
	// Locally: stops the compactor and flushes the append log on \quit
	// or EOF. Remotely: a no-op.
	defer sess.close()
	fmt.Println("ready. \\help for commands.")

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			printHelp()
		case line == `\schema`:
			sess.schema()
		case line == `\stats`:
			sess.stats()
		case strings.HasPrefix(line, `\ingest `):
			sess.ingest(strings.TrimPrefix(line, `\ingest `))
		case strings.HasPrefix(line, `\explain `):
			sess.explain(strings.TrimPrefix(line, `\explain `))
		default:
			sess.query(line)
		}
		fmt.Print("> ")
	}
}

// local answers every REPL command from an embedded engine.
type local struct {
	db *olap.DB
}

func (l *local) query(sql string)  { runQuery(l.db, sql) }
func (l *local) schema()           { printSchema(l.db) }
func (l *local) stats()            { printStats(l.db) }
func (l *local) ingest(arg string) { runIngest(l.db, arg) }
func (l *local) close()            { l.db.Close() }

func (l *local) explain(sql string) {
	ex, err := l.db.Explain(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(ex)
}

func printHelp() {
	fmt.Print(`queries:
  SELECT <agg>(<measure>) [WHERE <cond> [AND <cond>]...]
  agg: sum count min max avg; count also accepts *
  dimension cond:  time.month BETWEEN 3 AND 7   |  geo.region = 2
  text cond:       store_name = 'able bar #1'   |  customer_city BETWEEN 'a' AND 'b'
commands:
  \schema        show dimensions, levels, measures and text columns
  \stats         show scheduler (and, when live, ingest) statistics
  \explain <q>   price and place a query without running it
  \ingest <coords> | <measures> [| <texts>]
                 append one row (needs -live or -wal), e.g.
                 \ingest 3,17,5 | 9.5,1 | acme corp, metropolis
  \quit          exit
`)
}

// parseRow turns "coords | measures [| texts]" into one fact row.
func parseRow(arg string) (table.Row, error) {
	parts := strings.Split(arg, "|")
	if len(parts) != 2 && len(parts) != 3 {
		return table.Row{}, fmt.Errorf(`usage: \ingest <coords> | <measures> [| <texts>]`)
	}
	row := table.Row{}
	for _, f := range strings.Split(parts[0], ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return table.Row{}, fmt.Errorf("bad coordinate: %w", err)
		}
		row.Coords = append(row.Coords, c)
	}
	for _, f := range strings.Split(parts[1], ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return table.Row{}, fmt.Errorf("bad measure: %w", err)
		}
		row.Measures = append(row.Measures, m)
	}
	if len(parts) == 3 {
		for _, f := range strings.Split(parts[2], ",") {
			row.Texts = append(row.Texts, strings.TrimSpace(f))
		}
	}
	return row, nil
}

func runIngest(db *olap.DB, arg string) {
	row, err := parseRow(arg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	epoch, err := db.Ingest([]table.Row{row})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("1 row visible at epoch %d\n", epoch)
}

func printSchema(db *olap.DB) {
	s := db.Schema()
	for _, d := range s.Dimensions {
		fmt.Printf("dimension %s:", d.Name)
		for _, l := range d.Levels {
			fmt.Printf(" %s(%d)", l.Name, l.Cardinality)
		}
		fmt.Println()
	}
	for _, m := range s.Measures {
		fmt.Printf("measure   %s\n", m.Name)
	}
	for _, t := range s.Texts {
		fmt.Printf("text      %s\n", t.Name)
	}
}

func printStats(db *olap.DB) {
	if db.Clustered() {
		printClusterStats(db)
		return
	}
	st := db.System().Scheduler().Stats()
	fmt.Printf("submitted %d  cpu %d  translated %d  predicted-late %d\n",
		st.Submitted, st.ToCPU, st.Translated, st.PredictedLate)
	for i, n := range st.ToGPU {
		fmt.Printf("  gpu[%d]: %d\n", i, n)
	}
	fmt.Printf("partition health:%s\n", healthLine(db.System().Scheduler().HealthStates()))
	if st.FusedJobs > 0 {
		fmt.Printf("fusion: jobs %d  members %d  fallbacks %d  fan-in",
			st.FusedJobs, st.FusedMembers, db.System().FusionFallbacks())
		for i, n := range st.FusionFanIn {
			if n > 0 {
				fmt.Printf(" %s:%d", sched.FanInBucketLabels[i], n)
			}
		}
		fmt.Println()
	}
	if cs := db.CacheStats(); cs != (engine.CacheStats{}) {
		fmt.Printf("cache: hits %d  misses %d  subsumption-hits %d  epoch-invalidations %d  carried %d  dropped %d  expired %d  stores %d  evictions %d\n",
			cs.Hits, cs.Misses, cs.SubsumptionHits, cs.EpochInvalidations, cs.Carried, cs.Dropped, cs.Expired, cs.Stores, cs.Evictions)
	}
	if db.System().Live() != nil {
		ist := db.IngestStats()
		fmt.Printf("ingest: epoch %d  rows %d  batches %d  delta-stripes %d  compactions %d  maintenance-jobs %d\n",
			ist.Epoch, ist.Rows, ist.Batches, ist.DeltaStripes, ist.Compactions, st.MaintenanceJobs)
	}
}

// healthLine formats a per-unit health state list as " 0:healthy 1:quarantined".
func healthLine(states []sched.HealthState) string {
	var b strings.Builder
	for i, h := range states {
		fmt.Fprintf(&b, " %d:%s", i, h)
	}
	return b.String()
}

// printClusterStats reports the coordinator counters and each node's
// scheduler totals, node health and per-partition health.
func printClusterStats(db *olap.DB) {
	cs, ok := db.ClusterStats()
	if !ok {
		return
	}
	fmt.Printf("cluster: %d shards  replication %d\n", cs.Shards, cs.Replication)
	fmt.Printf("queries %d  group-queries %d  sub-queries %d (local %d, remote %d)\n",
		cs.Queries, cs.GroupQueries, cs.SubQueries, cs.LocalSubQueries, cs.RemoteSubQueries)
	fmt.Printf("moved %d bytes in %.4fs  failures %d  failovers %d  quarantines %d  reprobes %d\n",
		cs.BytesMoved, cs.MoveSeconds, cs.NodeFailures, cs.Failovers, cs.NodeQuarantines, cs.NodeReprobes)
	fmt.Printf("repair: under-replicated %d  evicted %d  started %d  completed %d  failed %d  moved %d bytes  partial-answers %d\n",
		cs.UnderReplicatedShards, cs.NodesEvicted, cs.RepairsStarted, cs.RepairsCompleted,
		cs.RepairsFailed, cs.RepairBytesMoved, cs.PartialAnswers)
	for _, n := range cs.PerNode {
		fmt.Printf("  node[%d] %-11s shards %v  submitted %d  cpu %d  gpu %d  partitions %s\n",
			n.Node, n.Health, n.Shards, n.Submitted, n.ToCPU, n.ToGPU, strings.Join(n.Partition, ","))
	}
}

func runQuery(db *olap.DB, sql string) {
	q, err := db.Parse(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The serving path: repeated scalar queries come back from the result
	// cache and the route string says so.
	res, err := db.Serve(q)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if q.Grouped() {
		for _, r := range res.Groups {
			fmt.Printf("  %-40s %.4f  (%d rows)\n", strings.Join(r.Labels, ", "), r.Value, r.Rows)
		}
		fmt.Printf("%d groups via %s%s\n", len(res.Groups), res.Route.Kind, partialSuffix(res.Route))
		return
	}
	fmt.Printf("%.4f  (%d rows, via %s, %v)%s\n", res.Value, res.Rows, res.Route.Kind, res.Latency, partialSuffix(res.Route))
}

// partialSuffix renders a degraded answer's completeness mask so a
// partial result can never be mistaken for a full one at the prompt.
func partialSuffix(route olap.Route) string {
	p := route.Partial
	if p == nil {
		return ""
	}
	return fmt.Sprintf("  ** PARTIAL: %d/%d rows, missing shards %v **",
		p.RowsAnswered, p.RowsTotal, p.MissingShards)
}
