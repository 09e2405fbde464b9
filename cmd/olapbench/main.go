// Command olapbench regenerates the paper's evaluation: every table and
// figure of Sec. IV plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	olapbench                          # run everything, full scale
//	olapbench -quick                   # reduced sweeps (CI scale)
//	olapbench -experiment table3       # one experiment
//	olapbench -list                    # list experiment IDs
//	olapbench -seed 7                  # reseed the synthetic workloads
//	olapbench -compare                 # re-run vs committed BENCH_*.json;
//	                                   # exit 1 on >15% headline regression
//
// A full-scale run of a gated experiment (scan-kernels, ingest, fusion,
// cluster, repair) also refreshes its BENCH_*.json baseline in the current
// directory; a -quick run writes no file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hybridolap/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment ID to run (default: all)")
		quick      = flag.Bool("quick", false, "reduced sweep/workload sizes")
		seed       = flag.Int64("seed", 1, "workload seed")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		asJSON     = flag.Bool("json", false, "emit results as JSON instead of text tables")
		compare    = flag.Bool("compare", false, "diff fresh runs against the committed BENCH_*.json baselines in the current directory")
		tolerance  = flag.Float64("tolerance", experiments.DefaultCompareTolerance, "relative regression that fails -compare")
	)
	flag.Parse()

	if *compare {
		cwd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapbench:", err)
			os.Exit(1)
		}
		rows, failed, err := experiments.Compare(cwd, *seed, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapbench:", err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				fmt.Fprintln(os.Stderr, "olapbench:", err)
				os.Exit(1)
			}
		} else {
			experiments.FprintComparison(os.Stdout, rows, *tolerance)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "olapbench: %d headline metric(s) regressed beyond %.0f%%\n", failed, *tolerance*100)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	emit := func(t *experiments.Table) {
		if !*quick && t.Baseline != nil {
			buf, err := json.MarshalIndent(t.Baseline, "", "  ")
			if err == nil {
				err = os.WriteFile(t.Baseline.File(), append(buf, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "olapbench: writing %s: %v\n", t.Baseline.File(), err)
				os.Exit(1)
			}
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(t); err != nil {
				fmt.Fprintln(os.Stderr, "olapbench:", err)
				os.Exit(1)
			}
			return
		}
		t.Fprint(os.Stdout)
	}
	if *experiment != "" {
		t, err := experiments.Run(*experiment, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapbench:", err)
			os.Exit(1)
		}
		emit(t)
		return
	}
	for _, id := range experiments.IDs() {
		t, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapbench:", err)
			os.Exit(1)
		}
		emit(t)
	}
}
