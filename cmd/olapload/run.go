package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	olap "hybridolap"
	"hybridolap/internal/engine"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/table"
)

// roundConfig says how one round of one workload runs.
type roundConfig struct {
	seed    int64
	seconds time.Duration // the timed window T
	warmup  time.Duration // untimed lead-in
	traced  bool
	// rows overrides the workload's row count (the smoke test only).
	rows int
	// setupReps is how many times the system is opened before the run;
	// setup_s is the median open time.
	setupReps int
	// traceOut keeps the traced round's span file; empty writes it to the
	// run's temp dir, which main removes on exit.
	traceOut string
	calib    calibration // traced rounds report it beside their layers
}

// roundResult is one round's outcome. metrics holds the end-to-end
// metrics of an untraced round, or the per-layer metrics of a traced one.
type roundResult struct {
	attempted, failed int
	oracleChecked     int
	spans             int
	metrics           map[string]float64
}

// sample is one timed read.
type sample struct {
	at         time.Duration // issue time since the window opened
	lat        time.Duration
	ok, cached bool
	grouped    bool
	refused    bool
	overheadUS float64 // HTTP: client wall time minus olapd's own latency_ms
	bytes      int
}

// clientResult is what one client goroutine brings back from a phase.
type clientResult struct {
	samples []sample
	pairs   []oraclePair
	tracer  *tracer
	layers  layerSamples
	err     error // a broken harness (a replay failed), not a failed query

	// writer only
	acks, lags   []float64 // ms: due time -> acked; due time -> call issued
	batchBusy    []float64 // us inside DB.Ingest
	ingestFailed int
}

// round is one workload's fresh system plus its clients' streams.
type round struct {
	w        *workload
	cfg      roundConfig
	s        *sut
	sys      *engine.System // nil for sharded and HTTP systems
	rows     int
	streams  []stream
	nextRows func() []table.Row
	// ackedRows counts every row Ingest acknowledged since Open, warm-up
	// included; only the writer goroutine touches it while a phase runs.
	ackedRows int
}

// readers is how many clients read; ingest_live gives one to the writer.
func (r *round) readers() int {
	if r.w.ingest {
		return clients - 1
	}
	return clients
}

// runRound opens a fresh system, warms it up, measures one timed window
// and verifies the answers outside the clock.
func runRound(ctx context.Context, w *workload, cfg roundConfig, e env) (*roundResult, error) {
	r := &round{w: w, cfg: cfg, rows: w.rows}
	if cfg.rows > 0 {
		r.rows = cfg.rows
	}
	var setups []float64
	for i := 0; i < max(cfg.setupReps, 1); i++ {
		if r.s != nil {
			if err := r.s.close(); err != nil {
				return nil, err
			}
		}
		s, took, err := openSUT(ctx, w, r.rows, e)
		if err != nil {
			return nil, err
		}
		r.s = s
		setups = append(setups, took.Seconds())
	}
	defer r.s.close() // idempotent; the success path closes explicitly below
	if r.s.db != nil {
		r.sys = r.s.db.System()
	}
	for c := 0; c < r.readers(); c++ {
		st, err := newStream(w, cfg.seed, c, r.s.schema, r.s.newGen)
		if err != nil {
			return nil, err
		}
		r.streams = append(r.streams, st)
	}
	if w.ingest {
		r.nextRows = ingestRows(clientSeed(cfg.seed, clients-1), r.s.schema)
	}

	if w.stream == streamDash {
		for _, sql := range dashAnchors(r.s.schema) {
			if _, err := r.s.issue(sql, false); err != nil {
				return nil, fmt.Errorf("%s: warm-up anchor: %w", w.name, err)
			}
		}
	}
	if _, err := r.phase(ctx, cfg.warmup, false); err != nil {
		return nil, err
	}
	before, err := r.s.counters()
	if err != nil {
		return nil, err
	}
	res, err := r.phase(ctx, cfg.seconds, true)
	if err != nil {
		return nil, err
	}
	after, err := r.s.counters()
	if err != nil {
		return nil, err
	}
	mem, err := r.s.memMB()
	if err != nil {
		return nil, err
	}

	out := &roundResult{}
	var reads []sample
	var pairs []oraclePair
	var tracers []*tracer
	for i := range res {
		reads = append(reads, res[i].samples...)
		pairs = append(pairs, res[i].pairs...)
		if res[i].tracer != nil {
			tracers = append(tracers, res[i].tracer)
		}
	}
	if cfg.traced {
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(e.tmp, w.name+".spans.jsonl")
		}
		replayed := 0
		for i := range res {
			replayed += res[i].layers.replayed
		}
		if err := checkSpans(tracers, replayed); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if out.spans, err = writeSpans(path, tracers); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "olapload: %s: %d spans written to %s\n", w.name, out.spans, path)
	}

	// Verification runs outside the clock. The ingest workload's table
	// moves under its reader, so it proves durability instead of answers.
	var replayS float64
	mismatches := 0
	if w.ingest {
		replayS, err = r.durability()
	} else {
		pairs = thin(pairs, oracleMax)
		mismatches, err = r.verify(pairs)
		out.oracleChecked = len(pairs)
	}
	if err != nil {
		return nil, err
	}
	if err := r.s.close(); err != nil {
		return nil, err
	}

	writer := &res[clients-1] // holds writer fields only under ingest_live
	out.attempted = len(reads) + len(writer.acks) + writer.ingestFailed
	out.failed = mismatches + writer.ingestFailed
	for _, sm := range reads {
		if !sm.ok {
			out.failed++
		}
	}
	if cfg.traced {
		out.metrics = r.layerMetrics(res, reads, before, after, out, replayS)
	} else {
		wrongShare := float64(mismatches) / float64(max(out.oracleChecked, 1))
		out.metrics = r.endToEndMetrics(reads, wrongShare, median(setups), mem)
	}
	return out, nil
}

// phase runs every client for dur and joins them. Only a measured phase
// records samples; streams and the ingest schedule carry on across phases.
func (r *round) phase(ctx context.Context, dur time.Duration, measured bool) ([]clientResult, error) {
	res := make([]clientResult, clients)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := range res {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c >= r.readers() {
				r.writer(ctx, c, start, end, measured, &res[c])
			} else {
				r.reader(ctx, c, start, end, measured, &res[c])
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for c := range res {
		if res[c].err != nil {
			return nil, fmt.Errorf("%s: client %d: %w", r.w.name, c, res[c].err)
		}
	}
	return res, nil
}

// reader is one closed-loop client: it issues its next query only after
// the previous one returned.
func (r *round) reader(ctx context.Context, c int, start, end time.Time, measured bool, out *clientResult) {
	traced := measured && r.cfg.traced
	if traced {
		out.tracer = &tracer{client: c, origin: start}
	}
	for n := 0; ctx.Err() == nil; n++ {
		sql, grouped := r.streams[c]()
		t := time.Now()
		if !t.Before(end) {
			return
		}
		a, err := r.s.issue(sql, grouped)
		done := time.Now()
		if !measured {
			continue
		}
		sm := sample{at: t.Sub(start), lat: done.Sub(t), ok: err == nil, cached: a.cached,
			grouped: grouped, refused: a.refused, bytes: a.bytes}
		if r.w.http {
			sm.overheadUS = us(sm.lat) - a.serverMS*1e3
		}
		out.samples = append(out.samples, sm)
		if err == nil && n%oracleEvery == 0 && !r.w.ingest {
			out.pairs = append(out.pairs, oraclePair{sql, grouped, a})
		}
		if !traced {
			continue
		}
		qid := int64(c)<<40 | int64(n+1)
		root := out.tracer.add(0, qid, rootSpan, t, done)
		if err == nil && n%replayEvery == 0 {
			tableRows := r.rows
			if r.w.ingest {
				tableRows = r.s.db.IngestStats().Rows
			}
			if rerr := replay(out.tracer, &out.layers, root, qid, sql, sm.lat, a.cached,
				r.s.schema, r.sys, tableRows); rerr != nil {
				out.err = rerr
				return
			}
		}
	}
}

// writer is ingest_live's paced client: one batch is due every
// ingestPeriod on a fixed schedule, and its latency counts from the due
// time, so a stall delays (and is charged to) every batch behind it.
func (r *round) writer(ctx context.Context, c int, start, end time.Time, measured bool, out *clientResult) {
	if measured && r.cfg.traced {
		out.tracer = &tracer{client: c, origin: start}
	}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * ingestPeriod)
		if !due.Before(end) {
			return
		}
		rows := r.nextRows()
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		t := time.Now()
		_, err := r.s.db.Ingest(rows)
		done := time.Now()
		if err == nil {
			r.ackedRows += len(rows)
		}
		if !measured {
			continue
		}
		if err != nil {
			out.ingestFailed++
			continue
		}
		out.acks = append(out.acks, ms(done.Sub(due)))
		out.lags = append(out.lags, ms(t.Sub(due)))
		out.batchBusy = append(out.batchBusy, us(done.Sub(t)))
		if out.tracer != nil {
			out.tracer.add(0, int64(c)<<40|int64(k+1), rootSpan, t, done)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// durability closes the live store, reopens it from its append log and
// requires every acknowledged row to be there. It returns the reopen time.
func (r *round) durability() (replayS float64, err error) {
	if err := r.s.close(); err != nil {
		return 0, err
	}
	opts := r.w.opts
	opts.Rows, opts.Seed, opts.WALPath = r.rows, dataSeed, r.s.wal
	t0 := time.Now()
	db, err := olap.Open(opts)
	if err != nil {
		return 0, fmt.Errorf("%s: reopening from the WAL: %w", r.w.name, err)
	}
	replayS = time.Since(t0).Seconds()
	defer db.Close()
	res, err := db.Query("SELECT count(*)")
	if err != nil {
		return 0, err
	}
	if want := int64(r.rows + r.ackedRows); res.Rows != want {
		return 0, fmt.Errorf("%s: durability: %d rows after WAL replay, want %d base + %d acked = %d",
			r.w.name, res.Rows, r.rows, r.ackedRows, want)
	}
	return replayS, nil
}

// The timed window is cut into windowSlices equal slices (half a second
// each at T = 26 s), and qps and the latency quantiles are read from the
// bestSlices slices that answered the most queries, pooled. The reference
// box is a few cores of a shared host: the scans run at three quarters of
// its stream bandwidth and its clock follows the host's load, so a busy
// neighbour slows every query alike, p50 as much as p95, for as long as it
// runs, seconds to minutes. Interference only ever slows a slice down, so
// the fastest slices are the ones that measured this code rather than the
// neighbours. An eighth of a long window, so that a run needs only 3.5
// quiet seconds in 26, in any pieces, to read the same as a run with no
// neighbour at all; seven slices rather than one (1800+ answers on the
// slowest workload), so that a lucky slice decides nothing and p95 keeps 90+
// samples beyond it.
//
// The price: these three metrics describe the system's fastest sustained
// state inside the window, not its average. A change that stalls some half
// seconds and spares others hides from them, and so does a slide during the
// window: ingest_live's reads slow as the table doubles, and dashboard_hot
// drops from 8000 to 3000 qps 7 to 10 s in, when the cache has filled and
// evicts the warm-up anchors first (both read from their opening seconds
// here). deadline_hit_rate and client.latency_p99/p999/max cover the whole
// window and see all of it.
const (
	windowSlices = 52
	bestSlices   = 7
)

// endToEndMetrics computes what a user of the system sees in one round.
func (r *round) endToEndMetrics(reads []sample, wrongShare, setupS, memMB float64) map[string]float64 {
	T := r.cfg.seconds
	bins := make([][]float64, windowSlices) // latencies, by issue time
	answered, inSLO := 0, 0
	for _, sm := range reads {
		if !sm.ok {
			continue
		}
		answered++
		l := ms(sm.lat)
		if l <= r.w.sloMS {
			inSLO++
		}
		k := min(int(sm.at*windowSlices/T), windowSlices-1)
		bins[k] = append(bins[k], l)
	}
	slices.SortFunc(bins, func(a, b []float64) int { return len(b) - len(a) })
	var best []float64
	for _, b := range bins[:bestSlices] {
		best = append(best, b...)
	}
	// A wrong answer is no answer: it counts against throughput and the
	// deadline. Only a sample of the answers is checked, so scale.
	right := 1 - wrongShare
	return map[string]float64{
		"qps":               float64(len(best)) / (bestSlices * T.Seconds() / windowSlices) * right,
		"latency_p50_ms":    quantile(best, 0.50),
		"latency_p95_ms":    quantile(best, 0.95),
		"deadline_hit_rate": max(float64(inSLO)-wrongShare*float64(answered), 0) / float64(max(len(reads), 1)),
		"mem_mb":            memMB,
		"setup_s":           setupS,
	}
}

// layerMetrics computes the per-layer view of a traced round from counter
// deltas over the window, the layer replays and the clients' own samples.
func (r *round) layerMetrics(res []clientResult, reads []sample, before, after counters,
	out *roundResult, replayS float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	nReads := float64(len(reads))

	var layers layerSamples
	for i := range res {
		layers.merge(&res[i].layers)
	}
	for metric, vs := range layers.vals {
		m[metric] = median(vs)
	}
	m["dict.lookups_per_query"] = ratio(float64(layers.lookups), float64(layers.translated))
	m["dict.translated_share"] = ratio(float64(layers.translated), float64(layers.replayed))
	m["gpusim.stream_share"] = ratio(m["gpusim.scan_gbps"], r.cfg.calib.cubeStreamGBps)

	hits := float64(after.Cache.Hits - before.Cache.Hits)
	subsumed := float64(after.Cache.SubsumptionHits - before.Cache.SubsumptionHits)
	m["engine.cache_hit_share"] = ratio(hits+subsumed, nReads)
	m["engine.cache_subsumed_share"] = ratio(subsumed, nReads)
	m["engine.cache_evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	m["engine.cache_epoch_invalidations"] = float64(after.Cache.EpochInvalidations - before.Cache.EpochInvalidations)
	members := float64(after.Fusion.FusedMembers - before.Fusion.FusedMembers)
	m["engine.fused_share"] = ratio(members, nReads)
	m["engine.fusion_fan_in_mean"] = ratio(members, float64(after.Fusion.FusedJobs-before.Fusion.FusedJobs))
	m["engine.fusion_fallbacks"] = float64(after.Fusion.Fallbacks - before.Fusion.Fallbacks)

	submitted := float64(after.Submitted - before.Submitted)
	m["sched.cpu_share"] = ratio(float64(after.ToCPU-before.ToCPU), submitted)
	byWidth := map[int]float64{}
	for i, sms := range gpusim.PaperLayout() { // Open and olapd both use it
		if i < len(after.ToGPU) && i < len(before.ToGPU) {
			byWidth[sms] += float64(after.ToGPU[i] - before.ToGPU[i])
		}
	}
	m["sched.gpu_1sm_share"] = ratio(byWidth[1], submitted)
	m["sched.gpu_2sm_share"] = ratio(byWidth[2], submitted)
	m["sched.gpu_4sm_share"] = ratio(byWidth[4], submitted)
	m["sched.predicted_late_share"] = ratio(float64(after.PredictedLate-before.PredictedLate), submitted)
	m["sched.resubmitted"] = float64(after.Resubmitted - before.Resubmitted)

	var lat, cachedUS, groupedUS, overheadUS, bytes []float64
	refused := 0
	for _, sm := range reads {
		if sm.refused {
			refused++
		}
		if !sm.ok {
			continue
		}
		lat = append(lat, ms(sm.lat))
		switch {
		case sm.cached:
			cachedUS = append(cachedUS, us(sm.lat))
		case sm.grouped:
			groupedUS = append(groupedUS, us(sm.lat))
		}
		if r.w.http {
			overheadUS = append(overheadUS, sm.overheadUS)
			bytes = append(bytes, float64(sm.bytes))
		}
	}
	m["engine.cached_serve_us"] = median(cachedUS)
	m["engine.grouped_us"] = median(groupedUS)
	m["olapd.http_overhead_us"] = median(overheadUS)
	m["olapd.resp_bytes"] = median(bytes)
	m["olapd.shed_share"] = ratio(float64(refused), nReads)
	m["client.latency_p99_ms"] = quantile(lat, 0.99)
	m["client.latency_p999_ms"] = quantile(lat, 0.999)
	m["client.latency_max_ms"] = quantile(lat, 1)
	m["client.samples"] = nReads
	m["client.error_rate"] = ratio(float64(out.failed), float64(out.attempted))
	m["client.trace_overhead_share"] = ratio(layers.busy.Seconds(), float64(r.readers())*r.cfg.seconds.Seconds())

	wr := &res[clients-1]
	ing0, ing1 := before.ingest, after.ingest
	ingested := float64(ing1.IngestedRows - ing0.IngestedRows)
	m["ingest.ack_p50_ms"] = quantile(wr.acks, 0.50)
	m["ingest.ack_p90_ms"] = quantile(wr.acks, 0.90)
	m["ingest.batch_us"] = median(wr.batchBusy)
	busyUS := 0.0
	for _, b := range wr.batchBusy {
		busyUS += b
	}
	m["ingest.rows_per_s_busy"] = ratio(float64(len(wr.batchBusy)*ingestBatch), busyUS/1e6)
	m["ingest.wal_bytes_per_row"] = ratio(float64(ing1.WALBytes-ing0.WALBytes), ingested)
	m["ingest.compactions"] = float64(ing1.Compactions - ing0.Compactions)
	m["ingest.compacted_rows_per_row"] = ratio(float64(ing1.CompactedRows-ing0.CompactedRows), ingested)
	m["ingest.delta_stripes_end"] = float64(ing1.DeltaStripes)
	m["ingest.stripes_end"] = float64(ing1.Stripes)
	m["ingest.replay_s"] = replayS
	m["client.gen_lag_ms"] = median(wr.lags)

	cl0, cl1 := before.cluster, after.cluster
	queries := float64(cl1.Queries - cl0.Queries)
	subs := float64(cl1.SubQueries - cl0.SubQueries)
	m["cluster.sub_queries_per_query"] = ratio(subs, queries)
	m["cluster.remote_share"] = ratio(float64(cl1.RemoteSubQueries-cl0.RemoteSubQueries), subs)
	m["cluster.bytes_moved_per_query"] = ratio(float64(cl1.BytesMoved-cl0.BytesMoved), queries)
	m["cluster.move_s_per_query"] = ratio(cl1.MoveSeconds-cl0.MoveSeconds, queries)
	m["cluster.failovers"] = float64(cl1.Failovers - cl0.Failovers)

	for k, v := range r.cfg.calib.metrics() {
		m[k] = v
	}
	// Metrics with no sample on this workload read 0.
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}

// checkSpans requires each of the replayed queries' root spans to have
// child spans, every child starting after the root it explains returned.
func checkSpans(tracers []*tracer, replayed int) error {
	explained := map[int64]bool{}
	for _, t := range tracers {
		roots := map[int64]span{}
		for _, sp := range t.spans {
			if sp.Parent == 0 {
				if sp.Name != rootSpan {
					return fmt.Errorf("span %d: root named %q", sp.ID, sp.Name)
				}
				roots[sp.ID] = sp
				continue
			}
			root, ok := roots[sp.Parent]
			if !ok || root.Query != sp.Query {
				return fmt.Errorf("span %d (%s): no root span for query %d", sp.ID, sp.Name, sp.Query)
			}
			if sp.StartNs < root.EndNs || sp.EndNs < sp.StartNs {
				return fmt.Errorf("span %d (%s): overlaps the root it explains", sp.ID, sp.Name)
			}
			explained[sp.Parent] = true
		}
	}
	if len(explained) != replayed {
		return fmt.Errorf("%d queries replayed but %d root spans have child spans", replayed, len(explained))
	}
	return nil
}
