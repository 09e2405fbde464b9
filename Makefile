GO ?= go

.PHONY: all build vet lint lint-fix bce-check bce-baseline test test-chaos test-serve-stress race bench bench-kernels bench-smoke bench-load bench-compare repro repro-quick examples clean

# Pre-merge checklist: `make all` runs build → vet → lint → bce-check →
# test; run `make race` as well before merging scheduler or simulator
# changes — the CI workflow (.github/workflows/ci.yml) gates on the same
# steps.
all: build vet lint bce-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Custom static-analysis suite (cmd/olaplint), twelve analyzers:
# simclock, seededrand, lockdiscipline, floateq, errdrop, unitsafety,
# the interprocedural wave — lockorder, epochpin, faultpoint,
# errcmp — which shares one call graph and a post-pass Finish phase, and
# the kernel pair noalloc, poolescape. Findings are fixed, never
# suppressed; see "Static analysis & determinism" in README.md and, for
# the rule that decides which analyzers stay, "Which analyzers stay" in
# DESIGN.md. Add -timing to see the shared package load, per-analyzer
# cost and finding counts.
lint:
	$(GO) run ./cmd/olaplint ./...

# Apply every suggested fix in place (unit conversions, errors.Is
# rewrites, a missing defer Put), then rerun lint
# to show what remains.
lint-fix:
	$(GO) run ./cmd/olaplint -fix ./...
	$(GO) run ./cmd/olaplint ./...

# Compiler-assisted bounds-check gate: recompile the kernel packages
# with -d=ssa/check_bce and diff the per-function bounds-check profile
# against internal/analysis/bcecheck/baseline.txt. A kernel edit that
# re-introduces a per-row bounds check fails here instead of quietly
# costing scan throughput. CI runs this in the lint job.
bce-check:
	$(GO) run ./cmd/olaplint -bce

# Regenerate the committed bounds-check baseline after a deliberate
# kernel change. Review the diff of baseline.txt like code: every added
# line is a new bounds check in a hot loop and needs a justification in
# the PR.
bce-baseline:
	$(GO) run ./cmd/olaplint -bce-update

test:
	$(GO) test ./...

# Fault-injection differential suite under the race detector: seeded
# chaos plans (GPU kernel aborts, dictionary miss storms, WAL failures,
# node deaths with link faults during shard re-replication) must never
# change an answer — completed queries stay bit-identical to their
# fault-free placement, every acked ingest batch survives recovery, and
# repaired replicas serve identically to the originals. See DESIGN.md
# "Fault model & degradation" and "Self-healing & degraded reads".
test-chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./...

# The serving path's wake-up protocol, twenty times under the race
# detector: a fusion-window leader sleeps on a channel, not a timer, and is
# woken by the last Serve call that could have joined it. A lost wake-up is
# not a wrong answer, only a rare FusionWindow-long stall, so no single run
# of the plain suite would notice one. -short leaves out the differentials'
# 100K-row cases (they pin bits over several fold-grid blocks and cost a
# table build each; `make test` and `make race` run them). The root
# package's Serve and Batch tests put the facade's one-goroutine-per-query
# Batch under the same stress. CI runs this beside test-chaos.
test-serve-stress:
	$(GO) test -race -short -count=20 -run 'Serv|Fus|Window|Batch' . ./internal/engine ./internal/sched ./cmd/olapd

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The A/B for an edit to the vectorized kernels or the one batch loop
# (internal/table/vecscan.go): every BENCH_scan.json shape, the batch-size
# sweep that justifies BatchSize, the grouped kernel and fan-in 1 vs 8,
# each against the row-at-a-time reference. Then the cube fold
# (internal/cube/aggregate.go) per box shape — whole, partly covered and
# compressed chunks, one and two group keys — in MB/s of the box's
# logical bytes, to read against a stream-triad bandwidth. Run it on the
# parent commit and on the change, alternating (or build both with `go
# test -c` and alternate the binaries), and compare per sub-benchmark;
# EXPERIMENTS.md "One bound plan" shows the form.
bench-kernels:
	$(GO) test ./internal/table -run '^$$' -bench 'ScanKernels|GroupScanKernels' -benchtime 20x -count 5
	$(GO) test ./internal/cube -run '^$$' -bench 'CubeFold' -benchtime 20x -count 5

# One iteration of every benchmark — catches bitrot in benchmark code
# (compile errors, renamed kernels, broken fixtures) without paying for a
# full measurement run, plus a quick pass of the ingest throughput
# experiment. CI runs this; real numbers come from `make bench` or
# `olapbench -experiment scan-kernels` / `olapbench -experiment ingest`
# (which refresh the committed BENCH_scan.json / BENCH_ingest.json
# baselines at full scale).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...
	$(GO) run ./cmd/olapbench -quick -experiment ingest

# Two seconds each of the repo's end-to-end benchmark (BENCHMARK.json,
# cmd/olapload/README.md) on its GPU-bound workload, on paper_mix, the one
# gated workload whose CPU-placed third and GROUP BYs go through the
# engine's attempt loop, and on dashboard_hot, whose answers mostly come
# from the result cache (the SQL front end and the hit path): catches a
# change that breaks what the benchmark drives — SQL in, verified answer
# out — without paying for a measurement run. Builds into .bench_build/.
bench-load:
	bash cmd/olapload/bench.sh --workload scan_cold --seed 1 --seconds 2 --trace 0
	bash cmd/olapload/bench.sh --workload paper_mix --seed 1 --seconds 2 --trace 0
	bash cmd/olapload/bench.sh --workload dashboard_hot --seed 1 --seconds 2 --trace 0

# Benchmark regression gate: fresh quick runs (in a scratch directory) of
# scan-kernels, ingest, fusion and cluster, diffed against the committed
# BENCH_*.json baselines. Every gated headline is a within-run ratio, so
# machine speed divides out; fails on a >15% regression. Refresh a stale
# baseline with `olapbench -experiment <id>` at full scale.
bench-compare:
	$(GO) run ./cmd/olapbench -compare

# Regenerate every table and figure of the paper at full scale.
repro:
	$(GO) run ./cmd/olapbench

repro-quick:
	$(GO) run ./cmd/olapbench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/retail
	$(GO) run ./examples/scheduler_trace
	$(GO) run ./examples/capacity_planning
	$(GO) run ./examples/cube_explorer

clean:
	$(GO) clean ./...
