package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	olap "hybridolap"
)

// TestSmoke runs every workload once untraced and once traced at toy scale
// and checks that each declared metric comes back finite, that answers
// were verified and that the span file holds what the traced round claims.
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "olapd")
	if out, err := exec.Command("go", "build", "-o", bin, "hybridolap/cmd/olapd").CombinedOutput(); err != nil {
		t.Fatalf("building olapd: %v\n%s", err, out)
	}
	e := env{tmp: tmp, olapd: bin}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := roundConfig{seed: 1, seconds: 200 * time.Millisecond, warmup: 100 * time.Millisecond,
				rows: 20_000, traced: traced, setupReps: 1}
			res, err := runRound(context.Background(), w, cfg, e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.name, traced, res.attempted, res.failed)
			}
			if !w.ingest && res.oracleChecked == 0 {
				t.Errorf("%s traced=%v: the oracle verified no answer", w.name, traced)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if res.spans == 0 {
					t.Errorf("%s: traced round wrote no spans", w.name)
				}
			}
			if len(res.metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(res.metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v (present %v)", w.name, d.Name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
				}
			}
		}
	}
}

// streamHash digests the first n queries of a client's stream.
func streamHash(t *testing.T, db *olap.DB, w *workload, seed int64, client, n int) [32]byte {
	t.Helper()
	st, err := newStream(w, seed, client, db.Schema(), db.NewGenerator)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		sql, _ := st()
		h.Write([]byte(sql))
		h.Write([]byte{0})
	}
	return [32]byte(h.Sum(nil))
}

// TestStreams pins the traffic contract: the stream is a function of the
// seed alone, and the workloads meant to differ by one thing really do
// share their stream byte for byte.
func TestStreams(t *testing.T) {
	db, err := olap.Open(olap.Options{Rows: 20_000, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, w := range workloads {
		for c := 0; c < clients; c++ {
			a, b := streamHash(t, db, w, 1, c, 500), streamHash(t, db, w, 1, c, 500)
			if a != b {
				t.Errorf("%s client %d: same seed, different stream", w.name, c)
			}
			if a == streamHash(t, db, w, 2, c, 500) {
				t.Errorf("%s client %d: seeds 1 and 2 give the same stream", w.name, c)
			}
		}
		if streamHash(t, db, w, 1, 0, 500) == streamHash(t, db, w, 1, 1, 500) {
			t.Errorf("%s: both clients issue the same stream", w.name)
		}
	}
	for _, pair := range [][2]string{
		{"scan_cold", "sharded"}, {"dashboard_hot", "http_dashboard"}, {"dashboard_hot", "ingest_live"},
	} {
		a, b := findWorkload(pair[0]), findWorkload(pair[1])
		if streamHash(t, db, a, 7, 0, 500) != streamHash(t, db, b, 7, 0, 500) {
			t.Errorf("%s and %s must share one stream", pair[0], pair[1])
		}
	}
}

// TestManifest keeps BENCHMARK.json and the program's metric tables one
// thing, inside the limits the driver's contract sets on names and units.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./cmd/olapload -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s [s, lower]")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("%s: unit %q / better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
}
