// Command olapload is the repository's benchmark: six deterministic
// workloads driven by two closed-loop clients in one process, measured end
// to end and layer by layer, with every answer checked. See README.md.
//
//	go run ./cmd/olapload -seed 1            # all six workloads, R rounds + a traced round
//	go run ./cmd/olapload -agree             # the untraced set twice; do the two agree?
//	go run ./cmd/olapload -workload scan_cold -seed 7 -seconds 26 -trace 0
//	go run ./cmd/olapload -manifest          # print BENCHMARK.json
//
// The third form is the driver's contract (bench.sh wraps it): one round of
// one workload, its result a JSON object on the last line of stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// rounds is R: interleaved untraced rounds per workload in a full run. The
// end-to-end value is the median over rounds.
const rounds = 3

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "run one round of this workload and print one JSON result line (driver mode)")
		seed      = flag.Int64("seed", 1, "seed of the query streams and ingested rows (table data is fixed)")
		seconds   = flag.Int("seconds", defaultSeconds, "timed window per round, seconds")
		trace     = flag.Int("trace", 0, "driver mode: 1 runs the traced round and reports per-layer metrics")
		agree     = flag.Bool("agree", false, "run the untraced set twice and compare the medians against each metric's bound")
		olapd     = flag.String("olapd", "", "prebuilt olapd binary (default: go build ./cmd/olapd into a temp dir)")
		traceOut  = flag.String("trace-out", "", "with -workload and -trace 1: keep the traced round's spans in this file (JSON lines)")
		record    = flag.String("record", "", "append the full run's results, with provenance and calibration, to this JSON-lines file")
		manifestF = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifestF {
		buf, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(buf)
		return 0
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if *traceOut != "" && *name == "" {
		return fail(fmt.Errorf("-trace-out names one workload's span file: it needs -workload"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp("", "olapload-")
	if err != nil {
		return fail(err)
	}
	// Every exit path below returns through here: WAL files, span files
	// and the olapd build go with the directory.
	defer os.RemoveAll(tmp)
	b := &bench{env: env{tmp: tmp, olapd: *olapd}, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, traceOut: *traceOut}

	switch {
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		return b.driver(ctx, w, *trace == 1)
	case *agree:
		return b.agree(ctx)
	default:
		return b.full(ctx, *record)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "olapload:", err)
	return 1
}

// bench is one invocation's settings.
type bench struct {
	env      env
	seed     int64
	seconds  time.Duration
	traceOut string
}

// needOlapd builds cmd/olapd once per invocation unless -olapd named one.
func (b *bench) needOlapd(ctx context.Context) error {
	if b.env.olapd != "" {
		return nil
	}
	bin := filepath.Join(b.env.tmp, "olapd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/olapd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building olapd (run from the repository root, or pass -olapd): %v\n%s", err, out)
	}
	b.env.olapd = bin
	return nil
}

func printMetrics(w *workload, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", w.name, d.Name, m[d.Name], d.Unit)
	}
}

// driver runs one round of one workload under the driver's contract.
func (b *bench) driver(ctx context.Context, w *workload, traced bool) int {
	if w.http {
		if err := b.needOlapd(ctx); err != nil {
			return fail(err)
		}
	}
	cfg := roundConfig{seed: b.seed, seconds: b.seconds, warmup: warmup, traced: traced, setupReps: 7, traceOut: b.traceOut}
	defs := endToEnd
	if traced {
		defs = perLayer
		var err error
		if cfg.calib, err = calibrate(); err != nil {
			return fail(err)
		}
	}
	res, err := runRound(ctx, w, cfg, b.env)
	if err != nil {
		return fail(err)
	}
	printMetrics(w, defs, res.metrics)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		v := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(fmt.Errorf("%s: metric %s is %v", w.name, d.Name, v))
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return fail(fmt.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted))
	}
	return 0
}

// spread is a metric's median, minimum and maximum over rounds.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// untraced runs R interleaved rounds — round 1 of every workload, then
// round 2, ... — so machine drift hits every workload alike.
func (b *bench) untraced(ctx context.Context) (map[string]map[string]spread, int, error) {
	if err := b.needOlapd(ctx); err != nil {
		return nil, 0, err
	}
	vals := map[string]map[string][]float64{}
	failed := 0
	for r := 1; r <= rounds; r++ {
		for _, w := range workloads {
			res, err := runRound(ctx, w, roundConfig{seed: b.seed, seconds: b.seconds, warmup: warmup, setupReps: 3}, b.env)
			if err != nil {
				return nil, 0, err
			}
			failed += res.failed
			fmt.Fprintf(os.Stderr, "olapload: round %d/%d %s: %d attempted, %d failed, %d answers verified, %.1f qps\n",
				r, rounds, w.name, res.attempted, res.failed, res.oracleChecked, res.metrics["qps"])
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for k, v := range res.metrics {
				vals[w.name][k] = append(vals[w.name][k], v)
			}
		}
	}
	out := map[string]map[string]spread{}
	for name, ms := range vals {
		out[name] = map[string]spread{}
		for k, vs := range ms {
			out[name][k] = spread{median(vs), slices.Min(vs), slices.Max(vs)}
		}
	}
	return out, failed, nil
}

// full is the whole benchmark: R untraced rounds for the end-to-end
// values, then one traced round per workload for the layers.
func (b *bench) full(ctx context.Context, record string) int {
	calib, err := calibrate()
	if err != nil {
		return fail(err)
	}
	e2e, failed, err := b.untraced(ctx)
	if err != nil {
		return fail(err)
	}
	layers := map[string]map[string]float64{}
	for _, w := range workloads {
		cfg := roundConfig{seed: b.seed, seconds: b.seconds, warmup: warmup, traced: true, setupReps: 1, calib: calib}
		res, err := runRound(ctx, w, cfg, b.env)
		if err != nil {
			return fail(err)
		}
		failed += res.failed
		layers[w.name] = res.metrics
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			s := e2e[w.name][d.Name]
			fmt.Printf("%s %s %.6g %s min=%.6g max=%.6g\n", w.name, d.Name, s.Median, d.Unit, s.Min, s.Max)
		}
		printMetrics(w, perLayer, layers[w.name])
	}
	if record != "" {
		if err := appendRecord(record, b, calib, e2e, layers); err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		return fail(fmt.Errorf("%d operations failed or answered wrongly", failed))
	}
	return 0
}

// agree runs the untraced set twice and reports, per workload and
// end-to-end metric, whether the second median is within the metric's
// bound of the first. A pair that is not cannot gate later changes: it
// fails the command unless its workload is ungated already.
func (b *bench) agree(ctx context.Context) int {
	first, f1, err := b.untraced(ctx)
	if err != nil {
		return fail(err)
	}
	second, f2, err := b.untraced(ctx)
	if err != nil {
		return fail(err)
	}
	unresolved := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, c := first[w.name][d.Name].Median, second[w.name][d.Name].Median
			diff := (c - a) / a
			verdict := "PASS"
			switch {
			case math.Abs(diff) <= d.Bound:
			case w.ungated:
				verdict = "UNRESOLVED (ungated)"
			default:
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Printf("%s %s %.6g %.6g %s diff=%+.2f%% bound=%.0f%% %s\n",
				w.name, d.Name, a, c, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	if f1+f2 > 0 {
		return fail(fmt.Errorf("%d operations failed or answered wrongly", f1+f2))
	}
	if unresolved > 0 {
		return fail(fmt.Errorf("%d workload x metric pairs disagree between two runs of the same code", unresolved))
	}
	return 0
}

// appendRecord adds one result set to a JSON-lines trajectory file, with
// what is needed to compare it with a record from another day or machine.
func appendRecord(path string, b *bench, c calibration, e2e map[string]map[string]spread,
	layers map[string]map[string]float64) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
			commit += "+uncommitted"
		}
	}
	type results struct {
		EndToEnd map[string]spread  `json:"end_to_end"`
		PerLayer map[string]float64 `json:"per_layer"`
	}
	rec := struct {
		Commit      string             `json:"commit"`
		Date        string             `json:"date"`
		Go          string             `json:"go"`
		NProc       int                `json:"nproc"`
		GOMAXPROCS  int                `json:"gomaxprocs"`
		Seed        int64              `json:"seed"`
		Rounds      int                `json:"rounds"`
		Seconds     float64            `json:"seconds"`
		Calibration map[string]float64 `json:"calibration"`
		Results     map[string]results `json:"results"`
	}{
		Commit: commit, Date: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: b.seed, Rounds: rounds, Seconds: b.seconds.Seconds(),
		Calibration: c.metrics(),
		Results:     map[string]results{},
	}
	for _, w := range workloads {
		rec.Results[w.name] = results{e2e[w.name], layers[w.name]}
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
