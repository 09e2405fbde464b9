package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hybridolap/internal/engine"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// span is one traced interval. Spans of one query share Query; a layer
// replay's Parent is the query's root span.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Query   int64  `json:"query"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

const rootSpan = "olap.serve"

// tracer collects one client's spans in memory; they are written when the
// workload ends. Times are nanoseconds since the traced window opened.
type tracer struct {
	client int
	origin time.Time
	spans  []span
}

// add records a span and returns its id (unique across clients).
func (t *tracer) add(parent, query int64, name string, start, end time.Time) int64 {
	id := int64(t.client)<<40 | int64(len(t.spans)+1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Query: query, Name: name,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// writeSpans writes every client's spans as JSON lines.
func writeSpans(path string, tracers []*tracer) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// layerSamples are the per-query measurements the layer replays yield,
// keyed by the per-layer metric they feed; each metric is the median of
// its samples. One per client, merged when the window closes.
type layerSamples struct {
	vals                          map[string][]float64
	replayed, translated, lookups int
	busy                          time.Duration // client time spent replaying
}

func (l *layerSamples) add(metric string, v float64) {
	if l.vals == nil {
		l.vals = map[string][]float64{}
	}
	l.vals[metric] = append(l.vals[metric], v)
}

func (l *layerSamples) merge(o *layerSamples) {
	for k, vs := range o.vals {
		for _, v := range vs {
			l.add(k, v)
		}
	}
	l.replayed += o.replayed
	l.translated += o.translated
	l.lookups += o.lookups
	l.busy += o.busy
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// replay re-runs one query layer by layer on the issuing client, after its
// root call returned, by calling each layer's public entry point. Every
// step becomes a child span of root. sys is nil for sharded and HTTP
// systems, which expose no single-node engine: only the parser is replayed
// there. tableRows is the fact-table size the kernels scanned.
//
// olaplint:faultexempt: measurement probe — it times the translation layer
// by itself on a query the system under test has already answered; the
// chaos layer belongs on the serving path the root span took, not here.
func replay(t *tracer, l *layerSamples, root, qid int64, sql string, rootDur time.Duration, cached bool,
	schema *table.Schema, sys *engine.System, tableRows int) error {
	began := time.Now()
	defer func() { l.busy += time.Since(began) }()
	l.replayed++

	t0 := time.Now()
	q, err := query.Parse(sql, schema)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("replay parse: %w", err)
	}
	t.add(root, qid, "query.parse", t0, t1)
	parse := t1.Sub(t0)
	l.add("query.parse_us", us(parse))
	if sys == nil {
		return nil
	}

	qq := q.Clone()
	needs := qq.NeedsTranslation()
	t0 = time.Now()
	lookups, err := query.Translate(qq, sys.Dicts())
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("replay translate: %w", err)
	}
	t.add(root, qid, "dict.translate", t0, t2)
	translate := t2.Sub(t0)
	if needs {
		l.translated++
		l.lookups += lookups
		l.add("dict.translate_us", us(translate))
	}

	t0 = time.Now()
	_, err = sys.Estimate(qq)
	t3 := time.Now()
	if err != nil {
		return fmt.Errorf("replay estimate: %w", err)
	}
	t.add(root, qid, "engine.estimate", t0, t3)
	estimate := t3.Sub(t0)
	l.add("engine.estimate_us", us(estimate))

	// Explain = Estimate + the scheduler's hypothetical placement.
	t0 = time.Now()
	ex, err := sys.Explain(qq)
	t4 := time.Now()
	if err != nil {
		return fmt.Errorf("replay explain: %w", err)
	}
	t.add(root, qid, "sched.place", t0, t4)
	place := max(t4.Sub(t0)-estimate, 0)
	l.add("sched.place_us", us(place))
	if q.Grouped() {
		// Grouped drill-downs run a separate kernel family; their cost is
		// the root span (engine.grouped_us), not a scalar-scan replay.
		return nil
	}

	var exec time.Duration
	t0 = time.Now()
	if ex.Decision.Queue.Kind == sched.QueueCPU {
		_, err = sys.AnswerOnCPU(qq)
		t5 := time.Now()
		if err != nil {
			return fmt.Errorf("replay cube aggregate: %w", err)
		}
		t.add(root, qid, "cube.aggregate", t0, t5)
		exec = t5.Sub(t0)
		l.add("cube.aggregate_us", us(exec))
		l.add("cube.subcube_kb", float64(ex.SubCubeBytes)/1024)
		l.add("cube.gbps", float64(ex.SubCubeBytes)/exec.Seconds()/1e9)
		if est := ex.Estimates.CPUSeconds; est > 0 {
			l.add("sched.estimate_error_cpu", (exec.Seconds()-est)/est)
		}
	} else {
		idx := ex.Decision.Queue.Index
		_, err = sys.AnswerOnGPU(qq, idx)
		t5 := time.Now()
		if err != nil {
			return fmt.Errorf("replay gpu execute: %w", err)
		}
		t.add(root, qid, "gpusim.execute", t0, t5)
		exec = t5.Sub(t0)
		l.add("gpusim.scan_ns_per_row", float64(exec.Nanoseconds())/float64(tableRows))
		l.add("gpusim.scan_gbps", float64(scanBytes(qq, tableRows))/exec.Seconds()/1e9)
		if est := ex.Estimates.GPUSeconds[idx]; est > 0 {
			l.add("sched.estimate_error_gpu", (exec.Seconds()-est)/est)
		}
	}
	if !cached {
		// What the serving path added on top of its layers: fusion-window
		// wait, per-call executor plumbing, the fused-kernel premium.
		sum := parse + translate + estimate + place + exec
		l.add("engine.serve_residual_us", us(rootDur-sum))
	}
	return nil
}

// scanBytes is the COMPUTED volume a scan of q reads: one 4-byte code
// column per dimension or text predicate plus the 8-byte measure column
// (none for count), over every row. Cache misses are not counted.
func scanBytes(q *query.Query, rows int) int64 {
	perRow := 4 * (len(q.Conditions) + len(q.TextConds))
	if q.Op != table.AggCount {
		perRow += 8
	}
	return int64(perRow) * int64(rows)
}
