package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/dict"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

func ingSchema() table.Schema {
	return table.Schema{
		Dimensions: []table.DimensionSpec{
			{Name: "time", Levels: []table.LevelSpec{
				{Name: "year", Cardinality: 4}, {Name: "month", Cardinality: 48}}},
			{Name: "geo", Levels: []table.LevelSpec{
				{Name: "region", Cardinality: 6}, {Name: "city", Cardinality: 36}}},
		},
		Measures: []table.MeasureSpec{{Name: "sales"}, {Name: "qty"}},
		Texts:    []table.TextSpec{{Name: "store"}},
	}
}

// randBatch builds a batch of random rows; texts mix a fixed pool (some of
// which seed the base table) with occasional novel strings, exercising the
// append-dictionary path.
func randBatch(rng *rand.Rand, s *table.Schema, n int) *Batch {
	b := &Batch{}
	for i := 0; i < n; i++ {
		r := table.Row{
			Coords: []int{rng.Intn(48), rng.Intn(36)},
			Measures: []float64{
				math.Round(rng.Float64()*10000) / 100,
				float64(rng.Intn(50) + 1),
			},
		}
		if rng.Intn(4) == 0 {
			r.Texts = []string{fmt.Sprintf("live-store-%02d", rng.Intn(40))}
		} else {
			r.Texts = []string{fmt.Sprintf("store-%02d", rng.Intn(20))}
		}
		b.Rows = append(b.Rows, r)
	}
	return b
}

// baseTable builds an offline base table with sorted dictionaries.
func baseTable(t testing.TB, rows int, seed int64) *table.FactTable {
	t.Helper()
	s := ingSchema()
	b, err := table.NewBuilder(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		if err := b.Append(table.Row{
			Coords:   []int{rng.Intn(48), rng.Intn(36)},
			Measures: []float64{math.Round(rng.Float64()*10000) / 100, float64(rng.Intn(50) + 1)},
			Texts:    []string{fmt.Sprintf("store-%02d", rng.Intn(20))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ft, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// rebuild reconstructs a from-scratch fact table holding exactly the rows
// visible in the snapshot, in logical row order, decoding text through
// the stripes' (live) dictionaries and re-encoding through fresh sorted
// dictionaries — the reference every epoch must match bit-identically.
func rebuild(t testing.TB, snap *table.Snapshot, s table.Schema) *table.FactTable {
	t.Helper()
	b, err := table.NewBuilder(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range snap.Stripes() {
		ft := st.Table()
		for r := 0; r < ft.Rows(); r++ {
			row := table.Row{}
			for d, dim := range s.Dimensions {
				row.Coords = append(row.Coords, int(ft.CoordAt(r, d, dim.Finest())))
			}
			for m := range s.Measures {
				row.Measures = append(row.Measures, ft.MeasureColumn(m)[r])
			}
			for x, ts := range s.Texts {
				str, derr := ft.Dicts().Decode(ts.Name, ft.TextColumn(x).At(r))
				if derr != nil {
					t.Fatal(derr)
				}
				row.Texts = append(row.Texts, str)
			}
			if err := b.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	ft, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// diffQueries is the query mix every epoch is checked under: dimension
// ranges at both levels, text equality / range / IN, all five ops.
func diffQueries() []*query.Query {
	return []*query.Query{
		{Op: table.AggSum, Measure: 0, Conditions: []query.Condition{{Dim: 0, Level: 1, From: 5, To: 30}}},
		{Op: table.AggAvg, Measure: 1, Conditions: []query.Condition{
			{Dim: 0, Level: 0, From: 1, To: 2}, {Dim: 1, Level: 1, From: 4, To: 28}}},
		{Op: table.AggCount},
		{Op: table.AggMin, Measure: 0, Conditions: []query.Condition{{Dim: 1, Level: 0, From: 0, To: 3}}},
		{Op: table.AggMax, Measure: 1},
		{Op: table.AggSum, Measure: 0, TextConds: []query.TextCondition{
			{Column: "store", From: "store-05", To: "store-05"}}},
		{Op: table.AggSum, Measure: 0, TextConds: []query.TextCondition{
			{Column: "store", From: "live-store-00", To: "store-10"}}},
		{Op: table.AggCount, TextConds: []query.TextCondition{
			{Column: "store", In: []string{"store-03", "live-store-07", "absent"}}}},
		{Op: table.AggAvg, Measure: 0,
			Conditions: []query.Condition{{Dim: 0, Level: 1, From: 0, To: 40}},
			TextConds:  []query.TextCondition{{Column: "store", From: "live-store-10", To: "live-store-30"}}},
	}
}

// checkEpoch asserts that every diff query answered over the snapshot is
// bit-identical to the same query answered over a from-scratch rebuild.
// Text conditions are translated per side (live append dictionaries vs
// the rebuild's sorted dictionaries): codes differ, answers must not.
func checkEpoch(t testing.TB, snap *table.Snapshot, s table.Schema) {
	t.Helper()
	ref := rebuild(t, snap, s)
	if ref.Rows() != snap.Rows() {
		t.Fatalf("epoch %d: snapshot has %d rows, rebuild %d", snap.Epoch(), snap.Rows(), ref.Rows())
	}
	liveDicts := snapDicts(snap)
	for qi, q := range diffQueries() {
		lq := q.Clone()
		if _, err := query.Translate(lq, liveDicts); err != nil {
			t.Fatalf("epoch %d query %d: live translate: %v", snap.Epoch(), qi, err)
		}
		lreq, lempty, err := lq.ToScanRequest(&s)
		if err != nil {
			t.Fatal(err)
		}
		rq := q.Clone()
		if _, err := query.Translate(rq, ref.Dicts()); err != nil {
			t.Fatalf("epoch %d query %d: rebuild translate: %v", snap.Epoch(), qi, err)
		}
		rreq, rempty, err := rq.ToScanRequest(&s)
		if err != nil {
			t.Fatal(err)
		}
		var got, want table.ScanResult
		if !lempty {
			if got, err = table.ScanSnapshot(snap, lreq); err != nil {
				t.Fatal(err)
			}
		}
		if !rempty {
			if want, err = table.Scan(ref, rreq); err != nil {
				t.Fatal(err)
			}
		}
		if got.Rows != want.Rows || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("epoch %d query %d: snapshot %+v != rebuild %+v", snap.Epoch(), qi, got, want)
		}
	}

	// Grouped: dimension group keys are stable across rebuilds, so compare
	// the finalised group lists directly.
	greqs := []table.GroupScanRequest{
		{ScanRequest: table.ScanRequest{Op: table.AggSum, Measure: 0},
			GroupBy: []table.GroupCol{{Dim: 0, Level: 0}}},
		{ScanRequest: table.ScanRequest{Op: table.AggAvg, Measure: 1,
			Predicates: []table.RangePredicate{{Dim: 1, Level: 1, From: 3, To: 30}}},
			GroupBy: []table.GroupCol{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}}},
	}
	for gi, req := range greqs {
		got, err := table.GroupScanSnapshot(snap, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := table.GroupScan(ref, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("epoch %d greq %d: %d groups != %d", snap.Epoch(), gi, len(got), len(want))
		}
		for i := range got {
			if table.PackKey(got[i].Keys) != table.PackKey(want[i].Keys) ||
				got[i].Rows != want[i].Rows ||
				math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
				t.Fatalf("epoch %d greq %d group %d: %+v != %+v", snap.Epoch(), gi, i, got[i], want[i])
			}
		}
	}
}

// snapDicts returns the (single, shared) dictionary set of the
// snapshot's stripes. Translating against the latest live dictionaries is
// correct even for old epochs: codes added later never occur in older
// stripes, so extra predicate codes match no rows.
func snapDicts(snap *table.Snapshot) *dict.Set {
	return snap.Stripes()[0].Table().Dicts()
}

func TestIngestDifferentialEpochs(t *testing.T) {
	s := ingSchema()
	base := baseTable(t, 500, 1)
	store, err := Open(Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(42))
	var snaps []*table.Snapshot
	snaps = append(snaps, store.Current())
	for i := 0; i < 12; i++ {
		snap, err := store.Ingest(randBatch(rng, &s, 20+rng.Intn(120)))
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		// Interleave compactions at random points in the schedule.
		if rng.Intn(3) == 0 {
			if _, err := store.CompactOnce(4); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, store.Current())
		}
	}
	// Every pinned epoch — including ones superseded long ago — must
	// answer bit-identically to a from-scratch rebuild of its rows.
	for _, snap := range snaps {
		checkEpoch(t, snap, s)
	}
}

func TestIngestValidation(t *testing.T) {
	base := baseTable(t, 50, 2)
	store, err := Open(Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	bad := []*Batch{
		{Rows: []table.Row{{Coords: []int{1}, Measures: []float64{1, 2}, Texts: []string{"x"}}}},
		{Rows: []table.Row{{Coords: []int{1, 99}, Measures: []float64{1, 2}, Texts: []string{"x"}}}},
		{Rows: []table.Row{{Coords: []int{1, -1}, Measures: []float64{1, 2}, Texts: []string{"x"}}}},
		{Rows: []table.Row{{Coords: []int{1, 2}, Measures: []float64{1}, Texts: []string{"x"}}}},
		{Rows: []table.Row{{Coords: []int{1, 2}, Measures: []float64{1, 2}, Texts: nil}}},
	}
	before := store.Current().Epoch()
	for i, b := range bad {
		if _, err := store.Ingest(b); err == nil {
			t.Fatalf("batch %d: want validation error", i)
		}
	}
	if got := store.Current().Epoch(); got != before {
		t.Fatalf("rejected batches advanced the epoch: %d -> %d", before, got)
	}
	// An empty batch is a no-op, not an error.
	snap, err := store.Ingest(&Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() != before {
		t.Fatalf("empty batch advanced the epoch to %d", snap.Epoch())
	}
}

func TestWALRecovery(t *testing.T) {
	s := ingSchema()
	wal := filepath.Join(t.TempDir(), "ingest.wal")
	base := baseTable(t, 200, 3)
	store, err := Open(Config{Base: base, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		if _, err := store.Ingest(randBatch(rng, &s, 30)); err != nil {
			t.Fatal(err)
		}
	}
	want := store.Current()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Ingest(randBatch(rng, &s, 1)); err == nil {
		t.Fatal("ingest after Close should fail")
	}

	// Reopen over the same WAL: the recovered store must expose the same
	// rows and answer identically. Codes are deterministic (arrival order),
	// so even the raw text columns match.
	re, err := Open(Config{Base: baseTable(t, 200, 3), WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Current()
	if got.Rows() != want.Rows() || got.Epoch() != want.Epoch() {
		t.Fatalf("recovered rows/epoch %d/%d, want %d/%d",
			got.Rows(), got.Epoch(), want.Rows(), want.Epoch())
	}
	st := re.Stats()
	if st.ReplayedBatches != 6 || st.WALRecords != 6 {
		t.Fatalf("replayed %d records %d, want 6/6", st.ReplayedBatches, st.WALRecords)
	}
	checkEpoch(t, got, s)

	for x := 0; x < got.Stripes()[1].Rows(); x++ {
		a := want.Stripes()[1].Table().TextColumn(0).At(x)
		b := got.Stripes()[1].Table().TextColumn(0).At(x)
		if a != b {
			t.Fatalf("row %d: recovered text code %d != original %d", x, b, a)
		}
	}
}

func TestWALTornTail(t *testing.T) {
	s := ingSchema()
	wal := filepath.Join(t.TempDir(), "ingest.wal")
	store, err := Open(Config{Schema: &s, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4; i++ {
		if _, err := store.Ingest(randBatch(rng, &s, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a record header promising more bytes
	// than exist, i.e. a torn frame.
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Schema: &s, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	st := re.Stats()
	if st.ReplayedBatches != 4 {
		t.Fatalf("replayed %d batches after torn tail, want 4", st.ReplayedBatches)
	}
	if re.Current().Rows() != 40 {
		t.Fatalf("recovered %d rows, want 40", re.Current().Rows())
	}
	// The torn tail must be gone: appending works and a further reopen
	// sees 5 intact records.
	if _, err := re.Ingest(randBatch(rng, &s, 10)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(Config{Schema: &s, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Stats().ReplayedBatches; got != 5 {
		t.Fatalf("after truncate+append reopen replayed %d, want 5", got)
	}
	checkEpoch(t, re2.Current(), s)
}

func TestWALCorruptMiddle(t *testing.T) {
	s := ingSchema()
	wal := filepath.Join(t.TempDir(), "ingest.wal")
	store, err := Open(Config{Schema: &s, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		if _, err := store.Ingest(randBatch(rng, &s, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload: its CRC fails, so
	// replay keeps only the first record and drops everything after.
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x55
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Schema: &s, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().ReplayedBatches; got >= 3 {
		t.Fatalf("corrupted log replayed %d batches, want < 3", got)
	}
	if re.Current().Rows()%10 != 0 {
		t.Fatalf("partial batch visible: %d rows", re.Current().Rows())
	}
}

func TestCubeAuxMaintained(t *testing.T) {
	s := ingSchema()
	base := baseTable(t, 400, 5)
	cfg := cube.Config{ChunkSide: 8}
	set, err := cube.BuildSet(base, []int{0, 1}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(Config{Base: base, Cubes: set, CubeCfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5; i++ {
		if _, err := store.Ingest(randBatch(rng, &s, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.CompactOnce(8); err != nil {
		t.Fatal(err)
	}
	snap := store.Current()
	live, ok := snap.Aux().(*cube.Set)
	if !ok || live == nil {
		t.Fatal("snapshot aux is not a cube set")
	}
	// The epoch's cube set must answer like a cube set rebuilt from all
	// visible rows (merge order differs, so compare with tolerance).
	ref := rebuild(t, snap, s)
	refSet, err := cube.BuildSet(ref, []int{0, 1}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boxes := []cube.Box{
		{{From: 0, To: 3}, {From: 0, To: 5}},
		{{From: 1, To: 2}, {From: 2, To: 4}},
		{{From: 5, To: 30}, {From: 3, To: 28}},
	}
	res := []int{0, 0, 1}
	for i, box := range boxes {
		got, _, err := live.Aggregate(box, res[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := refSet.Aggregate(box, res[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-6 ||
			got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("box %d: live %+v != rebuilt %+v", i, got, want)
		}
	}
	// The epoch-0 cube set must be untouched by later ingests (COW).
	zero, ok := set.Get(0)
	if !ok {
		t.Fatal("level-0 cube missing from epoch-0 set")
	}
	if zero.Rows() != int64(base.Rows()) {
		t.Fatalf("epoch-0 cube mutated: rows %d, want %d", zero.Rows(), base.Rows())
	}
}

// TestConcurrentIngestCompactQuery runs concurrent ingest, the background
// compactor, and scalar + grouped snapshot queries; run under -race it is
// the subsystem's data-race check, and each reader verifies internal
// consistency (a pinned snapshot never changes row count mid-query).
func TestConcurrentIngestCompactQuery(t *testing.T) {
	s := ingSchema()
	base := baseTable(t, 300, 17)
	wal := filepath.Join(t.TempDir(), "ingest.wal")
	cfg := cube.Config{ChunkSide: 8}
	set, err := cube.BuildSet(base, []int{0, 1}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(Config{Base: base, Cubes: set, CubeCfg: cfg, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	comp := store.StartCompactor(CompactorConfig{MinDeltas: 3, MaxRun: 6, Interval: time.Millisecond})
	if comp == nil {
		t.Fatal("compactor did not start")
	}
	if store.StartCompactor(CompactorConfig{}) != nil {
		t.Fatal("second compactor should be refused")
	}

	const writers, readers, batches = 3, 4, 15
	var wWG, rWG sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(seed int64) {
			defer wWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < batches; i++ {
				if _, err := store.Ingest(randBatch(rng, &s, 20)); err != nil {
					errc <- err
					return
				}
			}
		}(int64(100 + w))
	}
	stopRead := make(chan struct{})
	for r := 0; r < readers; r++ {
		rWG.Add(1)
		go func() {
			defer rWG.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				snap := store.Current()
				res, err := table.ScanSnapshot(snap, table.ScanRequest{Op: table.AggCount})
				if err != nil {
					errc <- err
					return
				}
				if res.Rows != int64(snap.Rows()) {
					errc <- fmt.Errorf("pinned snapshot count %d != %d", res.Rows, snap.Rows())
					return
				}
				if _, err := table.GroupScanSnapshot(snap, table.GroupScanRequest{
					ScanRequest: table.ScanRequest{Op: table.AggSum},
					GroupBy:     []table.GroupCol{{Dim: 0, Level: 0}},
				}); err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	wWG.Wait()
	close(stopRead)
	rWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Post-mortem: the final state must still be bit-identical to a
	// rebuild, compactions and all.
	re, err := Open(Config{Base: baseTable(t, 300, 17), WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Current().Rows() != 300+writers*batches*20 {
		t.Fatalf("recovered %d rows, want %d", re.Current().Rows(), 300+writers*batches*20)
	}
	checkEpoch(t, re.Current(), s)
}
