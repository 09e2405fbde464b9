package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/ingest"
	"hybridolap/internal/table"
)

// ingestFile is where IngestThroughput drops its machine-readable result,
// next to wherever olapbench was invoked from.
const ingestFile = "BENCH_ingest.json"

// ingestCase is one row of the throughput sweep, as persisted to
// BENCH_ingest.json.
type ingestCase struct {
	Case         string  `json:"case"`
	RowsPerSec   float64 `json:"rows_per_sec"`
	MicrosPerRow float64 `json:"us_per_row"`
	Epochs       uint64  `json:"epochs"`
}

type ingestReport struct {
	Experiment string       `json:"experiment"`
	BaseRows   int          `json:"base_rows"`
	IngestRows int          `json:"ingested_rows_per_case"`
	Seed       int64        `json:"seed"`
	Results    []ingestCase `json:"results"`
}

// IngestThroughput measures the streaming write path end to end — WAL
// append, text encoding against the growing dictionaries, delta-stripe
// build, copy-on-write cube maintenance and epoch publish — across batch
// sizes and durability settings, then times folding the accumulated delta
// stripes back into the base. Results land in BENCH_ingest.json.
func IngestThroughput(opts Options) (*Table, error) {
	baseRows := opts.pick(100_000, 10_000)
	ingestRows := opts.pick(50_000, 5_000)

	ft, err := table.Generate(table.GenSpec{
		Schema: table.PaperSchema(),
		Rows:   baseRows,
		Seed:   opts.seed(),
	})
	if err != nil {
		return nil, err
	}
	cs, err := cube.BuildSet(ft, []int{0, 1}, 0, cube.Config{})
	if err != nil {
		return nil, err
	}
	sc := ft.Schema()

	// Rows mix a bounded pool of novel strings, so the sweep exercises
	// both dictionary appends (early batches) and hits (steady state).
	mkRows := func(seed int64) []table.Row {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]table.Row, ingestRows)
		for i := range rows {
			r := table.Row{
				Coords:   make([]int, len(sc.Dimensions)),
				Measures: make([]float64, len(sc.Measures)),
				Texts:    make([]string, len(sc.Texts)),
			}
			for d, dim := range sc.Dimensions {
				r.Coords[d] = rng.Intn(dim.Levels[dim.Finest()].Cardinality)
			}
			for m := range r.Measures {
				r.Measures[m] = float64(rng.Intn(10_000)) / 100
			}
			for x := range r.Texts {
				r.Texts[x] = fmt.Sprintf("stream %s #%03d", sc.Texts[x].Name, rng.Intn(256))
			}
			rows[i] = r
		}
		return rows
	}

	dir, err := os.MkdirTemp("", "ingestbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{
		ID:      "ingest",
		Title:   "Streaming ingest throughput",
		Columns: []string{"case", "rows/s", "µs/row", "epochs"},
		Notes: []string{
			fmt.Sprintf("base %d rows, %d rows ingested per case; machine-readable copy in %s",
				baseRows, ingestRows, ingestFile),
			"each batch = WAL append + dict encode + delta stripe + COW cube merge + epoch publish",
		},
	}
	report := ingestReport{
		Experiment: "ingest", BaseRows: baseRows, IngestRows: ingestRows, Seed: opts.seed(),
	}

	record := func(name string, n int, el time.Duration, epochs uint64) {
		rps := float64(n) / el.Seconds()
		usr := float64(el.Microseconds()) / float64(n)
		t.Rows = append(t.Rows, []string{name, f(rps), f(usr), fmt.Sprint(epochs)})
		report.Results = append(report.Results, ingestCase{
			Case: name, RowsPerSec: rps, MicrosPerRow: usr, Epochs: epochs,
		})
	}

	// lastStore keeps the final no-WAL store alive for the compaction case.
	var lastStore *ingest.Store
	for _, c := range []struct {
		batch int
		wal   bool
	}{
		{100, false}, {1000, false}, {10_000, false}, {1000, true},
	} {
		cfg := ingest.Config{Base: ft, Cubes: cs}
		name := fmt.Sprintf("ingest batch=%d wal=off", c.batch)
		if c.wal {
			cfg.WALPath = filepath.Join(dir, fmt.Sprintf("bench-%d.wal", c.batch))
			name = fmt.Sprintf("ingest batch=%d wal=on", c.batch)
		}
		st, err := ingest.Open(cfg)
		if err != nil {
			return nil, err
		}
		rows := mkRows(opts.seed() + int64(c.batch))
		start := time.Now()
		for off := 0; off < len(rows); off += c.batch {
			end := min(off+c.batch, len(rows))
			if _, err := st.Ingest(&ingest.Batch{Rows: rows[off:end]}); err != nil {
				_ = st.Close()
				return nil, err
			}
		}
		record(name, len(rows), time.Since(start), st.Current().Epoch())
		if !c.wal && c.batch == 1000 {
			lastStore = st
			continue
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}

	// Fold every delta stripe back into the base, measuring merge speed
	// over the rows the compactor rewrote.
	start := time.Now()
	for {
		n, err := lastStore.CompactOnce(8)
		if err != nil {
			_ = lastStore.Close()
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	el := time.Since(start)
	stats := lastStore.Stats()
	record("compact all deltas", int(stats.CompactedRows), el, stats.Epoch)
	if err := lastStore.Close(); err != nil {
		return nil, err
	}

	t.Baseline = &report
	return t, nil
}
