package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Benchmark regression gate: `olapbench -compare` re-runs the benchmark
// experiments at quick scale and diffs each fresh headline metric against
// the committed BENCH_*.json baselines in the invocation directory. Every
// gated metric is a WITHIN-RUN ratio (kernel speedup, WAL overhead,
// serving-on/off QPS) — machine speed divides out, so a quick run on a
// slower box still reproduces the committed ratio — and the scalar
// compared is a geometric mean across cases, which damps single-case noise
// enough for a meaningful tolerance.

// A Baseline is the machine-readable record of an experiment the gate
// covers. An experiment only returns it, on its Table: olapbench writes it
// to File after a full-scale run, and Compare reads the committed file
// back into a fresh record to compare headlines with a quick run's.
type Baseline interface {
	// File is the record's file name.
	File() string
	// headline is the gated metric.
	headline() (float64, error)
}

// DefaultCompareTolerance is the relative regression that fails the gate:
// a fresh headline below (1 - tolerance) x committed is an error.
const DefaultCompareTolerance = 0.15

// ComparisonRow is one gated metric of the compare run.
type ComparisonRow struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Committed  float64 `json:"committed"`
	Fresh      float64 `json:"fresh"`
	Ratio      float64 `json:"ratio"` // fresh / committed
	OK         bool    `json:"ok"`
}

// compareSpec ties one experiment to its headline and to an empty record
// of its baseline.
type compareSpec struct {
	id     string
	metric string
	quick  bool // rerun at quick scale (full when the headline is scale-sensitive)
	record func() Baseline
}

// geomean returns the geometric mean of xs (which must be positive).
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("non-positive sample %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

func (*scanKernelsReport) File() string { return scanKernelsFile }
func (*ingestReport) File() string      { return ingestFile }
func (*fusionReport) File() string      { return fusionFile }
func (*repairReport) File() string      { return repairFile }
func (*clusterReport) File() string     { return clusterFile }

// headline is the geometric mean of the vectorized-vs-reference speedup
// across every kernel case.
func (r *scanKernelsReport) headline() (float64, error) {
	var sp []float64
	for _, c := range r.Results {
		sp = append(sp, c.Speedup)
	}
	return geomean(sp)
}

// headline is the WAL overhead ratio: wal-on / wal-off ingest throughput
// at batch=1000 (higher is better, 1.0 = free WAL).
func (r *ingestReport) headline() (float64, error) {
	var on, off float64
	for _, c := range r.Results {
		switch c.Case {
		case "ingest batch=1000 wal=on":
			on = c.RowsPerSec
		case "ingest batch=1000 wal=off":
			off = c.RowsPerSec
		}
	}
	if on <= 0 || off <= 0 {
		return 0, fmt.Errorf("batch=1000 wal on/off cases missing")
	}
	return on / off, nil
}

// headline is the geometric mean of the serving-on-vs-off QPS speedup
// across every fan-in.
func (r *fusionReport) headline() (float64, error) {
	var sp []float64
	for _, c := range r.Results {
		if c.Serving && c.SpeedupVsOff > 0 {
			sp = append(sp, c.SpeedupVsOff)
		}
	}
	return geomean(sp)
}

// headline is the slow-link/fast-link recovery-time ratio of the
// fault-free re-replication sweep (a pure virtual-clock quantity: the
// repair model is deterministic, so the ratio reproduces exactly).
func (r *repairReport) headline() (float64, error) {
	for _, c := range r.Results {
		if !c.Faulty && c.SlowOverFastRecovery > 0 {
			return c.SlowOverFastRecovery, nil
		}
	}
	return 0, fmt.Errorf("no fault-free slow/fast recovery ratio recorded")
}

// headline is the geometric mean of the movement-aware vs movement-blind
// QPS ratio across every multi-node case (a pure virtual-clock quantity:
// machine speed never enters).
func (r *clusterReport) headline() (float64, error) {
	var sp []float64
	for _, c := range r.Results {
		if c.MovementAware && c.Nodes > 1 && c.AwareOverBlindQPS > 0 {
			sp = append(sp, c.AwareOverBlindQPS)
		}
	}
	return geomean(sp)
}

// Scan, fusion and cluster rerun at quick scale: their ratios hold across
// scale (fusion keeps the full row count in quick mode for exactly this
// reason, and the cluster model is virtual-time). Ingest reruns at FULL
// scale — the WAL overhead ratio is scale-sensitive (fsync cost amortises
// over the ingested volume) and the full run is only seconds.
var compareSpecs = []compareSpec{
	{"scan-kernels", "geomean kernel speedup", true, func() Baseline { return new(scanKernelsReport) }},
	{"ingest", "wal-on/off throughput", false, func() Baseline { return new(ingestReport) }},
	{"fusion", "geomean serving on/off QPS", true, func() Baseline { return new(fusionReport) }},
	{"cluster", "geomean aware/blind QPS", true, func() Baseline { return new(clusterReport) }},
	{"repair", "slow/fast recovery ratio", true, func() Baseline { return new(repairReport) }},
}

// Compare runs the benchmark regression gate. Committed baselines are read
// from baseDir (normally the repo root olapbench was invoked from); the
// fresh quick runs write nothing. A baseline file that does not exist is
// skipped (the experiment has no committed baseline yet); any fresh
// headline below (1 - tolerance) x committed after one retry makes the
// returned failed count non-zero.
func Compare(baseDir string, seed int64, tolerance float64) ([]ComparisonRow, int, error) {
	if tolerance <= 0 {
		tolerance = DefaultCompareTolerance
	}
	var rows []ComparisonRow
	failed := 0
	for _, sp := range compareSpecs {
		rec := sp.record()
		committed, err := os.ReadFile(filepath.Join(baseDir, rec.File()))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return rows, failed, err
		}
		if err := json.Unmarshal(committed, rec); err != nil {
			return rows, failed, fmt.Errorf("%s: committed %s: %w", sp.id, rec.File(), err)
		}
		base, err := rec.headline()
		if err != nil {
			return rows, failed, fmt.Errorf("%s: committed %s: %w", sp.id, rec.File(), err)
		}
		run := func(seed int64) (float64, error) {
			t, err := Run(sp.id, Options{Quick: sp.quick, Seed: seed})
			if err != nil {
				return 0, fmt.Errorf("%s: fresh run: %w", sp.id, err)
			}
			fresh, err := t.Baseline.headline()
			if err != nil {
				return 0, fmt.Errorf("%s: fresh run: %w", sp.id, err)
			}
			return fresh, nil
		}
		fresh, err := run(seed)
		if err != nil {
			return rows, failed, err
		}
		if fresh < base*(1-tolerance) {
			// One retry before declaring a regression: the gate must catch
			// real slowdowns, not one unlucky scheduling of a quick run. A
			// genuine regression fails both attempts.
			again, err := run(seed + 1)
			if err != nil {
				return rows, failed, err
			}
			if again > fresh {
				fresh = again
			}
		}
		row := ComparisonRow{
			Experiment: sp.id, Metric: sp.metric,
			Committed: base, Fresh: fresh, Ratio: fresh / base,
			OK: fresh >= base*(1-tolerance),
		}
		if !row.OK {
			failed++
		}
		rows = append(rows, row)
	}
	return rows, failed, nil
}

// FprintComparison renders the compare table.
func FprintComparison(w io.Writer, rows []ComparisonRow, tolerance float64) {
	if tolerance <= 0 {
		tolerance = DefaultCompareTolerance
	}
	fmt.Fprintf(w, "== compare: fresh quick run vs committed baselines (tolerance %.0f%%) ==\n", tolerance*100)
	for _, r := range rows {
		verdict := "ok"
		if !r.OK {
			verdict = "REGRESSION"
		}
		fmt.Fprintf(w, "  %-14s %-28s committed %-8s fresh %-8s ratio %.2f  %s\n",
			r.Experiment, r.Metric, f(r.Committed), f(r.Fresh), r.Ratio, verdict)
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "  no committed BENCH_*.json baselines found")
	}
}
