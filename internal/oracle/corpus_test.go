package oracle_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hybridolap/internal/cluster"
	"hybridolap/internal/cube"
	"hybridolap/internal/dict"
	"hybridolap/internal/engine"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
	"hybridolap/internal/tpcds"
)

// The seeded corpus every route is checked on: a world is one base table
// (PaperSchema or TPC-DS) with everything built over it once — a device,
// its cube set, the epochs of one live store, 1-, 2- and 4-shard clusters
// — and a query is drawn from a seed against it.

// worldSpec names one world: a schema and a base-table size. The second
// world of each schema spans more than one of gpusim's work units, so
// unit partials merge.
type worldSpec struct {
	tpcds bool
	rows  int
	seed  int64
}

var worldSpecs = []worldSpec{
	{tpcds: false, rows: 3000, seed: 1},
	{tpcds: false, rows: gpusim.BlockRows + 700, seed: 2},
	{tpcds: true, rows: 2500, seed: 3},
	{tpcds: true, rows: gpusim.BlockRows + 300, seed: 4},
}

// world is one base table and everything built over it. Nothing in it
// changes after build, so fuzz inputs share it.
type world struct {
	spec   worldSpec
	ft     *table.FactTable
	dev    *gpusim.Device
	cubes  *cube.Set
	epochs []*table.Snapshot // of one live store: base, ingest, a compaction, more ingest
	dicts  *dict.Set         // that store's dictionaries, grown by every batch
	// batches feed a fresh store per input, for the cache's carry arm.
	batches  [][]table.Row
	clusters []*cluster.Cluster // 1, 2 and 4 shards over ft
}

var (
	worldsMu sync.Mutex
	worlds   = map[int]*world{}
)

// worldFor builds world i on first use and returns the shared one after.
func worldFor(t testing.TB, i int) *world {
	t.Helper()
	worldsMu.Lock()
	defer worldsMu.Unlock()
	if w, ok := worlds[i]; ok {
		return w
	}
	w, err := buildWorld(worldSpecs[i])
	if err != nil {
		t.Fatalf("world %d: %v", i, err)
	}
	worlds[i] = w
	return w
}

func buildWorld(spec worldSpec) (*world, error) {
	w := &world{spec: spec}
	var err error
	if spec.tpcds {
		// Dictionaries below and above 256 strings: the late strings push
		// customer_city past a byte, so delta stripes store it wider than
		// the base.
		w.ft, err = tpcds.Generate(tpcds.Spec{Rows: spec.rows, Seed: spec.seed, Customers: 2000, Cities: 250, Brands: 100, Stores: 60})
	} else {
		w.ft, err = table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: spec.rows, Seed: spec.seed})
	}
	if err != nil {
		return nil, err
	}
	if w.dev, w.cubes, err = engine.NewNode(w.ft, gpusim.PaperLayout(), []int{0, 1}, nil); err != nil {
		return nil, err
	}
	store, err := ingest.Open(ingest.Config{Base: w.ft, Cubes: w.cubes})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(spec.seed))
	w.epochs = append(w.epochs, store.Current())
	for step := 0; step < 6; step++ {
		if step == 3 {
			if _, err := store.CompactOnce(16); err != nil {
				return nil, err
			}
			w.epochs = append(w.epochs, store.Current())
			continue
		}
		b := randBatch(rng, w.ft.Schema(), 20+rng.Intn(300))
		w.batches = append(w.batches, b)
		snap, err := store.Ingest(&ingest.Batch{Rows: b})
		if err != nil {
			return nil, err
		}
		w.epochs = append(w.epochs, snap)
	}
	w.dicts = store.Dicts()
	for _, shards := range []int{1, 2, 4} {
		c, err := cluster.New(w.ft, cluster.Config{Shards: shards})
		if err != nil {
			return nil, err
		}
		w.clusters = append(w.clusters, c)
	}
	return w, nil
}

// lateText is the k-th string of text column col that no base table
// holds: ingest batches carry them, and queries ask for them.
func lateText(col string, k int) string { return fmt.Sprintf("late %s #%d", col, k) }

// randBatch draws n ingest rows: uniform finest coordinates, whole units of
// every measure, and text values half from the base pools, half late.
func randBatch(rng *rand.Rand, s *table.Schema, n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		r := &rows[i]
		for _, d := range s.Dimensions {
			r.Coords = append(r.Coords, rng.Intn(d.Levels[d.Finest()].Cardinality))
		}
		for m := range s.Measures {
			r.Measures = append(r.Measures, float64(rng.Intn(40000))/pow10(s.MeasureScale(m)))
		}
		for _, tc := range s.Texts {
			r.Texts = append(r.Texts, lateText(tc.Name, rng.Intn(300)))
		}
	}
	return rows
}

func pow10(n int) float64 {
	p := 1.0
	for ; n > 0; n-- {
		p *= 10
	}
	return p
}

// literal draws a text value of column col: a stored one, a late one, or
// (rarely) one nobody holds.
func (w *world) literal(rng *rand.Rand, col string) string {
	switch rng.Intn(8) {
	case 0:
		return "absent " + col
	case 1, 2:
		return lateText(col, rng.Intn(300))
	}
	d, _ := w.ft.Dicts().Get(col)
	s, _ := d.Decode(dict.ID(rng.Intn(d.Len())))
	return s
}

// query draws one query: scalar or grouped; dimension ranges (one in
// twelve inverted) at any level, text equalities, ranges and IN-lists,
// or none; any of the five ops on any measure.
func (w *world) query(rng *rand.Rand) *query.Query {
	s := w.ft.Schema()
	q := &query.Query{Op: table.AggOp(rng.Intn(5)), Measure: rng.Intn(len(s.Measures))}
	used := map[[2]int]bool{}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		d := rng.Intn(len(s.Dimensions))
		l := rng.Intn(len(s.Dimensions[d].Levels))
		if used[[2]int{d, l}] {
			continue
		}
		used[[2]int{d, l}] = true
		card := s.LevelCardinality(d, l)
		a, b := uint32(rng.Intn(card)), uint32(rng.Intn(card))
		if (a > b) != (rng.Intn(12) == 0) {
			a, b = b, a
		}
		q.Conditions = append(q.Conditions, query.Condition{Dim: d, Level: l, From: a, To: b})
	}
	if rng.Intn(3) == 0 {
		col := s.Texts[rng.Intn(len(s.Texts))].Name
		tc := query.TextCondition{Column: col}
		switch rng.Intn(3) {
		case 0:
			tc.From = w.literal(rng, col)
			tc.To = tc.From
		case 1:
			tc.From, tc.To = w.literal(rng, col), w.literal(rng, col)
			if tc.From > tc.To {
				tc.From, tc.To = tc.To, tc.From
			}
		default:
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				tc.In = append(tc.In, w.literal(rng, col))
			}
		}
		q.TextConds = append(q.TextConds, tc)
	}
	if rng.Intn(3) == 0 {
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			if rng.Intn(4) == 0 {
				q.GroupBy = append(q.GroupBy, query.GroupRef{Text: true, Column: s.Texts[rng.Intn(len(s.Texts))].Name})
				continue
			}
			d := rng.Intn(len(s.Dimensions))
			q.GroupBy = append(q.GroupBy, query.GroupRef{Dim: d, Level: rng.Intn(len(s.Dimensions[d].Levels))})
		}
	}
	return q
}

// fixedQueries are the cases of the per-package differentials this corpus
// replaced, over PaperSchema: gpusim's scalar, grouped and striped
// Execute checks, and the table's striped-snapshot scans.
func fixedQueries() []*query.Query {
	cond := func(d, l int, from, to uint32) query.Condition {
		return query.Condition{Dim: d, Level: l, From: from, To: to}
	}
	family := func(op table.AggOp, m int, from, to uint32) *query.Query {
		return &query.Query{Op: op, Measure: m, Conditions: []query.Condition{cond(0, 1, from, to), cond(2, 1, 2, 19)}}
	}
	return []*query.Query{
		{Op: table.AggSum, Conditions: []query.Condition{cond(0, 1, 0, 23), cond(2, 0, 2, 7)}},
		{Op: table.AggSum, Conditions: []query.Condition{cond(0, 0, 0, 5)}, GroupBy: []query.GroupRef{{Dim: 1, Level: 0}}},
		{Op: table.AggCount, GroupBy: []query.GroupRef{{Dim: 2, Level: 0}}},
		family(table.AggSum, 0, 1, 31), family(table.AggCount, 0, 4, 9), family(table.AggMin, 1, 0, 31),
		family(table.AggMax, 0, 9, 2), family(table.AggAvg, 1, 3, 28),
		{Op: table.AggCount},
		{Op: table.AggMin, Measure: 1},
		{Op: table.AggMax, Conditions: []query.Condition{cond(1, 0, 0, 2)}},
		{Op: table.AggAvg, Measure: 1, Conditions: []query.Condition{cond(0, 0, 1, 3)}},
		{Op: table.AggAvg, Measure: 1, Conditions: []query.Condition{cond(1, 3, 10, 440)}},
		{Op: table.AggCount, TextConds: []query.TextCondition{{Column: "store_name", In: []string{"absent", lateText("store_name", 3)}}}},
		{Op: table.AggAvg, Measure: 1, Conditions: []query.Condition{cond(0, 1, 0, 40)},
			GroupBy: []query.GroupRef{{Dim: 1, Level: 0}, {Dim: 2, Level: 0}}},
		{Op: table.AggSum, GroupBy: []query.GroupRef{{Text: true, Column: "customer_city"}}},
	}
}
