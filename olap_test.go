package olap

import (
	"math"
	"testing"
	"time"

	"hybridolap/internal/cluster"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

func openSmall(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{Rows: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := openSmall(t)
	s := db.Schema()
	if len(s.Dimensions) != 3 || len(s.Texts) != 2 {
		t.Fatalf("schema = %+v", s)
	}
}

func TestQueryEndToEnd(t *testing.T) {
	db := openSmall(t)
	res, err := db.Query("SELECT count(*) WHERE time.year BETWEEN 0 AND 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 3000 || res.Value != 3000 {
		t.Fatalf("count = (%v,%d), want all 3000 rows", res.Value, res.Rows)
	}
	if res.Route.Kind == "" || res.Latency <= 0 {
		t.Fatalf("route/latency = %+v", res)
	}
}

func TestQueryMatchesManualSum(t *testing.T) {
	db := openSmall(t)
	res, err := db.Query("SELECT sum(sales) WHERE time.month BETWEEN 0 AND 15 AND geo.region = 1")
	if err != nil {
		t.Fatal(err)
	}
	// Manual check over the raw table.
	ft := db.System().Config().Table
	var want float64
	var rows int64
	for r := 0; r < ft.Rows(); r++ {
		if ft.CoordAt(r, 0, 1) <= 15 && ft.CoordAt(r, 1, 0) == 1 {
			want += float64(ft.MeasureColumn(0)[r])
			rows++
		}
	}
	want /= 100 // sales is in cents
	if res.Rows != rows || res.Value != want {
		t.Fatalf("got (%v,%d), want (%v,%d)", res.Value, res.Rows, want, rows)
	}
}

func TestQueryWithTextPredicateRoutesToGPU(t *testing.T) {
	db := openSmall(t)
	// Find a literal that exists.
	d, _ := db.System().Config().Table.Dicts().Get("store_name")
	lit, _ := d.Decode(0)
	res, err := db.Query("SELECT sum(sales) WHERE store_name = '" + lit + "'")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Route.Translated {
		t.Fatal("text query should be marked translated")
	}
	if res.Route.Kind == "cpu" {
		t.Fatal("text query routed to CPU cubes")
	}
	if res.Rows == 0 {
		t.Fatal("stored literal matched no rows")
	}
}

func TestQueryParseErrorsSurface(t *testing.T) {
	db := openSmall(t)
	if _, err := db.Query("SELECT frob(sales)"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestBatchOrderAndAgreement(t *testing.T) {
	db := openSmall(t)
	g, err := db.NewGenerator(query.GenConfig{Seed: 4, TextProb: 0.3,
		LevelWeights: []float64{0.5, 0.5}, MeasureChoice: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Batch(30)
	rs, err := db.Batch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 30 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		ref, err := db.System().Reference(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows != ref.Rows || math.Abs(r.Value-ref.Value) > 1e-6*math.Max(1, math.Abs(ref.Value)) {
			t.Fatalf("query %d: got (%v,%d) want (%v,%d)", i, r.Value, r.Rows, ref.Value, ref.Rows)
		}
	}
}

func TestGPUOnlyOption(t *testing.T) {
	db, err := Open(Options{Rows: 1000, Seed: 3, GPUOnly: true, Deadline: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT avg(quantity) WHERE time.year = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Route.Kind == "cpu" {
		t.Fatal("GPU-only system used CPU")
	}
}

// TestRunValidates: Serve and Batch refuse a query the schema cannot
// answer with an error, not a panic or a zero answer — a condition on a
// dimension the schema lacks, or an aggregate op outside sum…avg on a
// cube-answerable and on a GPU-bound query.
func TestRunValidates(t *testing.T) {
	db := openSmall(t)
	bad := []*query.Query{{Conditions: []query.Condition{{Dim: 9}}, Op: table.AggSum}}
	for _, op := range []table.AggOp{-1, 5, 42} {
		// time.year is a materialised cube level; time.day is no cube's.
		bad = append(bad,
			&query.Query{Conditions: []query.Condition{{Dim: 0, Level: 0, From: 0, To: 3}}, Op: op},
			&query.Query{Conditions: []query.Condition{{Dim: 0, Level: 2, From: 0, To: 99}}, Op: op})
	}
	for i, q := range bad {
		if r, err := db.Serve(q); err == nil {
			t.Errorf("Serve accepted invalid query %d (op %v): %+v", i, q.Op, r)
		}
		if rs, err := db.Batch([]*query.Query{q}); err == nil {
			t.Errorf("Batch accepted invalid query %d (op %v): %+v", i, q.Op, rs)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	// Static database: both calls are trivial nils.
	db := openSmall(t)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	// Live database: only the first Close touches the store; later calls
	// return nil instead of tripping over the already-closed WAL.
	live, err := Open(Options{Rows: 1000, Seed: 2, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Ingest([]table.Row{{Coords: []int{0, 0, 0}, Measures: []float64{1, 1}, Texts: []string{"a", "b"}}}); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := live.Close(); err != nil {
			t.Fatalf("repeat Close %d = %v, want nil", i, err)
		}
	}
}

func TestServeFacade(t *testing.T) {
	db, err := Open(Options{
		Rows: 3000, Seed: 2,
		Fusion: true, FusionWindow: time.Millisecond,
		ResultCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// time.day is level 2: no materialised cube can answer it, so the
	// query takes the GPU serving path (a fusion window of one).
	const sql = "SELECT count(*) WHERE time.day BETWEEN 0 AND 255"
	res, err := db.ServeQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 3000 || res.Route.Cached {
		t.Fatalf("first serve: %+v", res)
	}
	// The oracle is an uncached sequential scan of the current epoch.
	reference := func(sql string) table.ScanResult {
		t.Helper()
		q, err := db.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.System().Reference(q)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	ref := reference(sql)
	if res.Value != ref.Value || res.Rows != ref.Rows {
		t.Fatalf("serve (%v,%d) != reference (%v,%d)", res.Value, res.Rows, ref.Value, ref.Rows)
	}
	again, err := db.ServeQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Route.Cached || again.Value != res.Value || again.Rows != res.Rows {
		t.Fatalf("re-serve: %+v", again)
	}
	if cs := db.CacheStats(); cs.Hits == 0 || cs.Stores == 0 {
		t.Fatalf("cache stats: %+v", cs)
	}
	narrow, err := db.ServeQuery("SELECT count(*) WHERE time.day BETWEEN 10 AND 90")
	if err != nil {
		t.Fatal(err)
	}
	if !narrow.Route.Subsumed {
		t.Fatalf("narrowed count not subsumed: %+v", narrow)
	}
	refN := reference("SELECT count(*) WHERE time.day BETWEEN 10 AND 90")
	if narrow.Value != refN.Value || narrow.Rows != refN.Rows {
		t.Fatalf("subsumed (%v,%d) != reference (%v,%d)", narrow.Value, narrow.Rows, refN.Value, refN.Rows)
	}
}

// TestShardsAnswerContract pins what Options.Shards promises: every shard
// count ≥ 2, a count that divides nothing in particular among them,
// answers bit-for-bit like every other, like a one-shard cluster.New and
// like a single-node DB, on every op — partials are exact integer units,
// so one merged partial per shard gives the bits one scan does.
func TestShardsAnswerContract(t *testing.T) {
	const rows, seed = 20_000, 3
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	one, err := cluster.New(ft, cluster.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	single, err := Open(Options{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded := make(map[int]*DB)
	for _, n := range []int{2, 3, 4, 8} {
		db, err := Open(Options{Rows: rows, Seed: seed, Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		sharded[n] = db
	}

	for _, agg := range []string{"sum(sales)", "avg(quantity)", "count(*)", "min(sales)", "max(quantity)"} {
		// brand is below the materialised cube levels: a scan on every side.
		sql := "SELECT " + agg + " WHERE product.brand BETWEEN 10 AND 300 AND time.month BETWEEN 2 AND 29"
		q, err := query.Parse(sql, single.Schema())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := one.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Rows == 0 {
			t.Fatalf("fixture: %q matches nothing", sql)
		}
		for n, db := range sharded {
			got, err := db.Serve(q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != ref.Rows || math.Float64bits(got.Value) != math.Float64bits(ref.Value) {
				t.Fatalf("%s: Shards=%d answers (%v, %d), a one-shard cluster (%v, %d)", agg, n, got.Value, got.Rows, ref.Value, ref.Rows)
			}
		}
		got, err := single.Serve(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != ref.Rows || math.Float64bits(got.Value) != math.Float64bits(ref.Value) {
			t.Fatalf("%s: single-node (%v, %d), a one-shard cluster (%v, %d)", agg, got.Value, got.Rows, ref.Value, ref.Rows)
		}
	}
}

// TestServeEmptyTranslationRoute: a text predicate naming a string no
// dictionary knows is answered by translation alone — nothing executes —
// so the route names the translation partition, not the CPU (which cannot
// answer a text predicate at all).
func TestServeEmptyTranslationRoute(t *testing.T) {
	db, err := Open(Options{Rows: 4000, Fusion: true, ResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.ServeQuery("SELECT count(*) WHERE store_name = 'no-such-store'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Route.Kind != "trans" || !res.Route.Translated || res.Rows != 0 {
		t.Fatalf("empty translation answered as %+v", res)
	}
}
