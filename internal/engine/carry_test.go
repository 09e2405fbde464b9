package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"hybridolap/internal/gpusim"
	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// TestServeCacheCarryDifferential is the carry's correctness net. Over 50+
// epochs of interleaved ingest, compaction and serving it re-serves one
// fixed pool of queries — all five ops; plain ranges, inverted ranges, text
// equality, IN-lists and lexical ranges (Or-lists once translated), strings
// first ingested mid-run; cube-answerable and GPU-bound — so that entries
// stored at one epoch are looked up at later ones, and checks every answer,
// cached or not, bit-identical to a from-scratch scan of the snapshot
// pinned for that call; a sum/avg also bit-identical to a recompute on GPU
// partition 0 (or the CPU, if placed there). Every route's entry is
// carried: a sum/avg the attempt loop answered on the CPU (a
// cube-answerable one, used every epoch) is hit at later epochs like a
// fused one. The 100K-row case starts three work units into gpusim's row
// space, and the 32 668-row case 100 rows short of a unit edge, so some
// tail crosses it. The 200-row case starts with text dictionaries below
// 256 strings and ingests 200 new store names, so its snapshots hold
// one-byte and two-byte stripes of one column, before and after the
// compactions that merge them; there every count/min/max is also checked
// against the row-at-a-time scan, which shares no kernel with it.
func TestServeCacheCarryDifferential(t *testing.T) {
	t.Run("rows=3000", func(t *testing.T) {
		serveCacheCarryDifferential(t, carryCase{rows: 3000, rounds: 24, lateStores: 4, epochs: 50, hits: 100, folds: 50})
	})
	t.Run("rows=100000", func(t *testing.T) {
		skipBlocksCaseIfShort(t)
		serveCacheCarryDifferential(t, carryCase{rows: 100_000, rounds: 4, lateStores: 4, epochs: 9, hits: 15, folds: 8})
	})
	t.Run("rows=32668/tails cross a block edge", func(t *testing.T) {
		serveCacheCarryDifferential(t, carryCase{rows: gpusim.BlockRows - 100, rounds: 8, lateStores: 4, crosses: true, epochs: 17, hits: 30, folds: 15})
	})
	t.Run("rows=200/dictionary grows past 256", func(t *testing.T) {
		serveCacheCarryDifferential(t, carryCase{rows: 200, rounds: 24, lateStores: 400, mixedWidths: true, epochs: 50, hits: 100, folds: 50})
	})
}

// carryCase sizes one run — the base table, the rounds of ingest and
// compaction, the distinct store names first ingested mid-run — and says
// how much of the carry it must have exercised, whether a snapshot must
// have held store_name stripes of two widths and whether a carry must have
// crossed a work-unit edge of gpusim's row space.
type carryCase struct {
	rows, rounds, lateStores int
	mixedWidths, crosses     bool
	epochs, hits, folds      int
}

// storeNameWidths returns the distinct widths, in bytes, the snapshot's
// stripes store text column 0 (store_name) at.
func storeNameWidths(snap *table.Snapshot) map[int]bool {
	widths := make(map[int]bool)
	for _, st := range snap.Stripes() {
		widths[st.Table().TextColumn(0).Width()] = true
	}
	return widths
}

// rowAtATime answers a request over the snapshot with the reference
// kernel, stripe by stripe: partials are exact under Merge.
func rowAtATime(t *testing.T, snap *table.Snapshot, req table.ScanRequest) table.ScanResult {
	t.Helper()
	var acc table.ScanResult
	for _, st := range snap.Stripes() {
		part, err := table.ScanRange(st.Table(), req, 0, st.Rows())
		if err != nil {
			t.Fatal(err)
		}
		acc = table.Merge(req.Op, acc, part)
	}
	return table.Finalize(req.Op, snap.Schema().MeasureScale(req.Measure), acc)
}

func serveCacheCarryDifferential(t *testing.T, c carryCase) {
	s, err := Setup(SetupSpec{
		Rows: c.rows, Seed: 5, Live: true,
		Fusion: true, FusionWindow: time.Millisecond, Cache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Live().Close(); err != nil {
			t.Errorf("closing live store: %v", err)
		}
	})
	store := s.Live()

	family := func(op table.AggOp, measure int, f0, t0, f1, t1 uint32) *query.Query {
		return &query.Query{
			Conditions: []query.Condition{
				{Dim: 0, Level: 2, From: f0, To: t0},
				{Dim: 1, Level: 2, From: f1, To: t1},
			},
			Measure: measure, Op: op,
		}
	}
	text := func(op table.AggOp, measure int, tc query.TextCondition) *query.Query {
		return &query.Query{TextConds: []query.TextCondition{tc}, Measure: measure, Op: op}
	}
	brand := func(op table.AggOp, from, to uint32) *query.Query {
		return &query.Query{Conditions: []query.Condition{{Dim: 2, Level: 2, From: from, To: to}}, Op: op}
	}
	pool := []*query.Query{
		// The anchors, then narrower members of their family: folds for
		// count/min/max (an inverted range folds no cell), exact-only sum/avg.
		family(table.AggCount, 0, 0, 255, 0, 127),
		family(table.AggMin, 0, 0, 255, 0, 127),
		family(table.AggMax, 1, 0, 255, 0, 127),
		family(table.AggCount, 0, 17, 190, 5, 99),
		family(table.AggMin, 0, 40, 41, 0, 127),
		family(table.AggMax, 1, 0, 255, 64, 64),
		family(table.AggCount, 0, 200, 100, 0, 127),
		family(table.AggSum, 0, 17, 190, 5, 99),
		family(table.AggAvg, 1, 3, 250, 1, 120),
		family(table.AggMin, 1, 9, 99, 9, 99), // no anchor for min(quantity): an exact entry
		// A column set without an anchor: exact entries, one of them inverted.
		brand(table.AggCount, 10, 300),
		brand(table.AggMax, 0, 511),
		brand(table.AggMin, 400, 3),
		brand(table.AggSum, 10, 300),
		// Cube-answerable: stored by the attempt loop's CPU placement.
		{Op: table.AggCount},
		{Conditions: []query.Condition{{Dim: 0, Level: 1, From: 3, To: 20}}, Op: table.AggCount},
		{Conditions: []query.Condition{{Dim: 1, Level: 0, From: 0, To: 1}}, Op: table.AggMax},
		// Text predicates; the "late" strings enter the dictionaries mid-run.
		text(table.AggMin, 1, query.TextCondition{Column: "customer_city", From: "live city 1", To: "live city 1"}),
		text(table.AggCount, 0, query.TextCondition{Column: "store_name", In: []string{"live store #0", "live store #3", "late store #1"}}),
		text(table.AggMax, 0, query.TextCondition{Column: "customer_city", From: "late city 0", To: "live city 9"}),
		text(table.AggCount, 0, query.TextCondition{Column: "store_name", From: "late store #2", To: "late store #2"}),
		text(table.AggAvg, 0, query.TextCondition{Column: "store_name", From: "live store #2", To: "live store #2"}),
		// Cube-answerable sum: the attempt loop's answer, carried like any
		// other. Served twice an epoch.
		{Conditions: []query.Condition{{Dim: 0, Level: 1, From: 3, To: 20}}, Op: table.AggSum},
	}
	soloSum := len(pool) - 1

	rng := rand.New(rand.NewSource(21))
	nextRow := 0
	ingestBatch := func(late bool) {
		t.Helper()
		rows := make([]table.Row, 15+rng.Intn(30))
		for i := range rows {
			rows[i] = liveRow(nextRow)
			if late && nextRow%2 == 0 {
				rows[i].Texts = []string{fmt.Sprintf("late store #%d", nextRow%c.lateStores), fmt.Sprintf("late city %d", nextRow%3)}
			}
			nextRow++
		}
		if _, err := s.Ingest(&ingest.Batch{Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	compact := func() int {
		t.Helper()
		n, err := store.CompactOnce(16)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// splits reports whether the row the cache has answered up to lies
	// strictly inside a stripe of the current snapshot: the tail cannot be
	// told from the stripe list.
	splits := func() bool {
		s.cache.mu.Lock()
		rows := s.cache.rows
		s.cache.mu.Unlock()
		base := 0
		for _, st := range s.pin().Stripes() {
			if base < rows && rows < base+st.Rows() {
				return true
			}
			base += st.Rows()
		}
		return false
	}

	// lastRun[i] is the epoch pool query i was last executed (not served
	// from the cache) at.
	lastRun := make([]uint64, len(pool))
	var carriedHits, carriedSums, carriedFolds, carriedCPUSums, split, restamps, crossed int
	var mixedDeltas, mixedCompacted int // snapshots served with store_name at two widths
	serve := func(qi int, q *query.Query) {
		t.Helper()
		snap := s.pin()
		out, err := s.Serve(q)
		if err != nil {
			t.Fatalf("epoch %d query %d: %v", snap.Epoch(), qi, err)
		}
		want, err := s.ReferenceAt(q, snap)
		if err != nil {
			t.Fatal(err)
		}
		desc := fmt.Sprintf("epoch %d query %d (%v, hit=%v subsumed=%v, queue %s)",
			snap.Epoch(), qi, q.Op, out.CacheHit, out.Subsumed, out.Queue)
		if !resultBits(out.Result, want) {
			t.Fatalf("%s: got (%v, %d), from-scratch scan (%v, %d)",
				desc, out.Result.Value, out.Result.Rows, want.Value, want.Rows)
		}
		if c.mixedWidths {
			qq := q.Clone()
			if _, err := query.Translate(qq, s.dicts()); err != nil {
				t.Fatal(err)
			}
			req, empty, err := qq.ToScanRequest(s.cfg.Table.Schema())
			if err != nil {
				t.Fatal(err)
			}
			if ref := rowAtATime(t, snap, req); !empty && !resultBits(want, ref) {
				t.Fatalf("%s: from-scratch scan (%v, %d), row at a time (%v, %d)",
					desc, want.Value, want.Rows, ref.Value, ref.Rows)
			}
		}
		if sum := q.Op == table.AggSum || q.Op == table.AggAvg; sum && (out.CacheHit || out.Attempts > 0) { // not the empty-translation short cut
			if again := faultFree(t, s, q).Result; !resultBits(out.Result, again) {
				t.Fatalf("%s: (%v, %d) is not the recomputed answer (%v, %d)",
					desc, out.Result.Value, out.Result.Rows, again.Value, again.Rows)
			}
		}
		if qi < 0 {
			return
		}
		switch {
		case !out.CacheHit:
			if out.Attempts > 0 { // not the empty-translation short cut
				lastRun[qi] = snap.Epoch()
			}
		case lastRun[qi] == snap.Epoch():
		case out.Subsumed:
			carriedFolds++
		default:
			carriedHits++
			if q.Op == table.AggSum || q.Op == table.AggAvg {
				carriedSums++
				if qi == soloSum || out.Queue.Kind == sched.QueueCPU {
					carriedCPUSums++
				}
			}
		}
	}
	serveAll := func() {
		t.Helper()
		if snap := s.pin(); len(storeNameWidths(snap)) > 1 {
			if snap.DeltaStripes() > 0 {
				mixedDeltas++
			} else {
				mixedCompacted++
			}
		}
		s.cache.mu.Lock()
		from := s.cache.rows
		s.cache.mu.Unlock()
		for qi, q := range pool {
			serve(qi, q)
		}
		if to := s.pin().Rows(); from > 0 && from/gpusim.BlockRows != to/gpusim.BlockRows {
			crossed++ // this serveAll's first serve carried the cache over an edge
		}
		serve(soloSum, pool[soloSum])
		ops := []table.AggOp{table.AggCount, table.AggMin, table.AggMax, table.AggSum, table.AggAvg}
		for i := 0; i < 4; i++ {
			serve(-1, serveFamilyQuery(rng, ops[rng.Intn(len(ops))], rng.Intn(2)))
		}
	}

	serveAll()
	for round := 0; round < c.rounds; round++ {
		stale := s.pin()
		ingestBatch(round >= 8)
		switch round % 4 {
		case 1:
			// The cache takes the batch as a delta stripe of its own, then a
			// compaction merges it with the next: the cache's row count ends
			// up inside a stripe, and two epochs pass unseen.
			serve(0, pool[0])
			ingestBatch(round >= 8)
			if compact() < 2 {
				t.Fatalf("round %d: nothing to compact", round)
			}
			if splits() {
				split++
			}
		case 2:
			// Three epochs between two lookups.
			ingestBatch(round >= 8)
			ingestBatch(round >= 8)
		case 3:
			// A compaction-only epoch: no new row, every carrier re-stamped.
			serve(0, pool[0])
			before := s.CacheStats()
			rows := s.pin().Rows()
			if compact() < 2 {
				t.Fatalf("round %d: nothing to compact", round)
			}
			serve(0, pool[0])
			if after := s.CacheStats(); s.pin().Rows() == rows && after.Carried > before.Carried {
				restamps++
			}
		}
		serveAll()

		// A reader still pinned to the epoch before this round: it misses,
		// disturbs nothing, and what it executed is not stored.
		probe := table.ScanRequest{Op: table.AggCount, Predicates: []table.RangePredicate{{Dim: 2, Level: 2, From: 10, To: 300}}}
		if _, ok := s.cache.lookup(&probe, stale); ok {
			t.Fatalf("round %d: a reader pinned at epoch %d hit the cache of epoch %d", round, stale.Epoch(), s.pin().Epoch())
		}
		if _, ok := s.cache.lookup(&probe, s.pin()); !ok {
			t.Fatalf("round %d: the stale lookup cost the current epoch its entry", round)
		}
		bogus := table.ScanRequest{Op: table.AggCount, Predicates: []table.RangePredicate{{Dim: 2, Level: 3, From: uint32(round), To: 2000}}}
		s.cache.store(&bogus, stale, gpusim.Answer{Result: table.ScanResult{Value: -1, Rows: -1}}, sched.QueueRef{})
		if _, ok := s.cache.lookup(&bogus, s.pin()); ok {
			t.Fatalf("round %d: a store pinned at epoch %d was kept", round, stale.Epoch())
		}
	}

	cs := s.CacheStats()
	t.Logf("%d epochs: %d carried exact hits (%d sum/avg, %d of them answered on the CPU), %d folds from carried anchors, %d split stripes, %d re-stamps, %d unit edges crossed, cache %+v",
		s.pin().Epoch(), carriedHits, carriedSums, carriedCPUSums, carriedFolds, split, restamps, crossed, cs)
	if s.pin().Epoch() < uint64(c.epochs) {
		t.Fatalf("only %d epochs", s.pin().Epoch())
	}
	if carriedHits < c.hits || carriedSums < c.hits/5 || carriedFolds < c.folds || split == 0 || restamps == 0 {
		t.Fatalf("the carry was not exercised: %d exact hits (%d sum/avg), %d folds, %d split stripes, %d re-stamps",
			carriedHits, carriedSums, carriedFolds, split, restamps)
	}
	if c.crosses && crossed == 0 {
		t.Fatalf("no carry crossed a work-unit edge")
	}
	// The solo sum, answered by a cube walk, is executed once and hit at
	// every later epoch: its serves after the first round are carried hits.
	if carriedCPUSums < c.rounds {
		t.Fatalf("a CPU-answered sum/avg was served across an epoch %d times in %d rounds; cache stats %+v", carriedCPUSums, c.rounds, cs)
	}
	if cs.Carried == 0 {
		t.Fatalf("cache stats: %+v", cs)
	}
	if c.mixedWidths && (mixedDeltas == 0 || mixedCompacted == 0) {
		t.Fatalf("store_name was served at two widths from %d snapshots with delta stripes and %d fully compacted ones; want both",
			mixedDeltas, mixedCompacted)
	}
}

// TestServeCacheAdvanceRace races readers into the advance: a writer
// publishes epochs while four readers serve an anchor and a query it
// subsumes, so at every epoch one of them carries the cache and the others
// wait for it to land or, pinned a moment earlier, keep hitting the old
// epoch. A reader's full-domain count can only grow, and once the writer
// is done the cache must hold the final row set's answers — a tail merged
// twice, or not at all, would stay wrong for good.
func TestServeCacheAdvanceRace(t *testing.T) {
	const baseRows, batches, perBatch, readers = 2000, 40, 10, 4
	s, err := Setup(SetupSpec{Rows: baseRows, Seed: 1, Live: true, Fusion: true, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Live().Close(); err != nil {
			t.Errorf("closing live store: %v", err)
		}
	})
	family := func(f0, t0, f1, t1 uint32) *query.Query {
		return &query.Query{Conditions: []query.Condition{
			{Dim: 0, Level: 2, From: f0, To: t0},
			{Dim: 1, Level: 2, From: f1, To: t1},
		}, Op: table.AggCount}
	}
	anchor, narrow := family(0, 255, 0, 127), family(0, 200, 0, 100)
	if _, err := s.Serve(anchor); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			rows := make([]table.Row, perBatch)
			for i := range rows {
				rows[i] = liveRow(b*perBatch + i)
			}
			if _, err := s.Ingest(&ingest.Batch{Rows: rows}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen int64
			for {
				select {
				case <-done:
					return
				default:
				}
				all, err := s.Serve(anchor)
				if err != nil {
					t.Error(err)
					return
				}
				if all.Result.Rows < seen || all.Result.Rows > baseRows+batches*perBatch {
					t.Errorf("full-domain count went from %d to %d", seen, all.Result.Rows)
					return
				}
				seen = all.Result.Rows
				if part, err := s.Serve(narrow); err != nil || part.Result.Rows > baseRows+batches*perBatch {
					t.Errorf("narrow count %+v, %v", part.Result, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if t.Failed() {
		t.FailNow()
	}
	for _, q := range []*query.Query{anchor, narrow} {
		out, err := s.Serve(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Reference(q)
		if err != nil {
			t.Fatal(err)
		}
		if !out.CacheHit || !resultBits(out.Result, want) {
			t.Fatalf("after the race: %+v, want a cache hit equal to %+v", out, want)
		}
	}
	if cs := s.CacheStats(); cs.Carried == 0 || cs.SubsumptionHits == 0 {
		t.Fatalf("the anchor was never carried or never folded from: %+v", cs)
	}
}

// TestServeWantCellsClampsIntervals pins the cell-pass gate on the two
// intervals whose width a uint32 subtraction gets wrong: an inverted one
// (which can match nothing) and one reaching past the level's last code.
func TestServeWantCellsClampsIntervals(t *testing.T) {
	s := testSystem(t, func(spec *SetupSpec) { spec.Cache = true })
	req := func(f0, t0, f1, t1 uint32) *table.ScanRequest {
		return &table.ScanRequest{Op: table.AggCount, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 2, From: f0, To: t0},
			{Dim: 1, Level: 2, From: f1, To: t1},
		}}
	}
	for _, c := range []struct {
		name string
		req  *table.ScanRequest
		want bool
	}{
		{"full domain", req(0, 255, 0, 127), true},
		{"near-full domain", req(2, 255, 0, 126), true},
		{"half of one column", req(0, 127, 0, 127), false},
		{"inverted", req(200, 100, 0, 127), false},
		{"inverted by one", req(1, 0, 0, 127), false},
		{"past the last code, full", req(0, 300, 0, 127), true},
		{"a box beyond the plane budget", req(0, 100_000, 0, 127), false},
		{"past the last code, half", req(128, 511, 0, 127), false},
		{"wholly past the last code", req(256, 300, 0, 127), false},
	} {
		if got := s.wantCells(c.req); got != c.want {
			t.Errorf("%s: wantCells = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestServeCacheKeyRoundTrip pins requestOf as the inverse of cacheKeys:
// entries keep only the key, and an advance rebinds what it spells.
func TestServeCacheKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		req := table.ScanRequest{Op: table.AggOp(rng.Intn(5)), Measure: rng.Intn(2)}
		for n := rng.Intn(4); n > 0; n-- {
			p := table.RangePredicate{From: rng.Uint32(), To: rng.Uint32()}
			if rng.Intn(3) == 0 {
				p.Text, p.TextIndex = true, rng.Intn(2)
			} else {
				p.Dim, p.Level = rng.Intn(3), rng.Intn(4)
			}
			for o := rng.Intn(3); o > 0; o-- {
				p.Or = append(p.Or, table.CodeRange{From: rng.Uint32(), To: rng.Uint32()})
			}
			req.Predicates = append(req.Predicates, p)
		}
		order := table.CanonicalPredOrder(req.Predicates, nil)
		_, key := cacheKeys(&req, order)
		back, ok := requestOf(key)
		if !ok {
			t.Fatalf("key %q does not parse", key)
		}
		if back.Op != req.Op || back.Measure != req.Measure || len(back.Predicates) != len(req.Predicates) {
			t.Fatalf("key %q: got %+v, want %+v", key, back, req)
		}
		for bi, pi := range order {
			got, want := back.Predicates[bi], req.Predicates[pi]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("key %q predicate %d: got %+v, want %+v", key, bi, got, want)
			}
		}
	}
	for _, bad := range []string{"", "1", "x;0", "1;0;d0.2", "1;0;d0.2|5", "1;0;d0.2|5-x", "1;0;q|1-2", "1;0;d0.2|1-2|3-4", "1;0|1-2"} {
		if _, ok := requestOf(bad); ok {
			t.Errorf("requestOf(%q) accepted a string cacheKeys cannot build", bad)
		}
	}
}

// TestResultCacheCarryBudget pins the order an advance picks carriers in
// when they do not all fit carryBudget: a 16 384-row tail leaves room for
// 16 entries, and two anchors and 30 plain sum/count entries (another
// column: no anchor contains them) compete for it. The anchors survive,
// then the plain entries most recently used — ten hit late, two hit early,
// then the two stored last — and the other 16, never used, are Expired,
// not Dropped: the epoch lost nothing anyone had asked for twice. Every
// survivor answers the new epoch with the bits a fresh store there holds.
func TestResultCacheCarryBudget(t *testing.T) {
	const tail = 1 << 14
	if room := carryBudget / tail; room != 16 {
		t.Fatalf("a %d-row tail leaves room for %d carriers, the test assumes 16", tail, room)
	}
	reg, err := table.NewRegistry(table.PaperSchema(), genTable(t, 500, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	at := reg.Current()
	next, err := reg.Publish([]*table.FactTable{genTable(t, tail, 2)}, table.StripeDelta, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	anchor := func(op table.AggOp) table.ScanRequest {
		return table.ScanRequest{Op: op, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 2, From: 0, To: 255}, {Dim: 1, Level: 2, From: 0, To: 127}}}
	}
	plain := func(i int) table.ScanRequest {
		return table.ScanRequest{Op: []table.AggOp{table.AggSum, table.AggCount, table.AggAvg}[i%3], Measure: i % 2,
			Predicates: []table.RangePredicate{{Dim: 2, Level: 2, From: uint32(i), To: 511}}}
	}
	c := newResultCache(0)
	var reqs []table.ScanRequest
	for _, op := range []table.AggOp{table.AggCount, table.AggMax} {
		reqs = append(reqs, anchor(op))
		storeScanned(t, c, at, reqs[len(reqs)-1], true)
	}
	for i := 0; i < 30; i++ {
		reqs = append(reqs, plain(i))
		storeScanned(t, c, at, reqs[len(reqs)-1], false)
	}
	hit := func(i int) {
		t.Helper()
		if _, ok := c.lookup(&reqs[2+i], at); !ok {
			t.Fatalf("plain entry %d not stored", i)
		}
	}
	hit(3)
	hit(7)
	for i := 20; i < 30; i++ {
		hit(i)
	}
	survive := map[int]bool{0: true, 1: true, 2 + 3: true, 2 + 7: true, 2 + 18: true, 2 + 19: true}
	for i := 20; i < 30; i++ {
		survive[2+i] = true
	}

	fresh := newResultCache(0)
	for i, req := range reqs {
		got, ok := c.lookup(&req, next)
		if ok != survive[i] {
			t.Fatalf("entry %d (%v over %+v): carried = %v, want %v", i, req.Op, req.Predicates, ok, survive[i])
		}
		if !ok {
			continue
		}
		storeScanned(t, fresh, next, req, i < 2)
		want, _ := fresh.lookup(&req, next)
		if !resultBits(got.result, want.result) {
			t.Fatalf("entry %d (%v): carried (%v, %d), stored at the new epoch (%v, %d)",
				i, req.Op, got.result.Value, got.result.Rows, want.result.Value, want.result.Rows)
		}
	}
	if st := c.snapshotStats(); st.Carried != 16 || st.Expired != 16 || st.Dropped != 0 || st.EpochInvalidations != 0 {
		t.Fatalf("after the advance: %+v, want 16 carried, 16 expired, none dropped", st)
	}
}

// BenchmarkCacheAdvance times what one ingest epoch costs the cache on the
// dashboard's shape: five full-domain anchors of 256×128 cells and, beside
// them, either 64 exact count/min/max entries of another column set or 100
// sum/avg entries of the anchors' own family — every entry used — carried
// over a 1000-row delta stripe: a bound plan or two over the tail, the
// partials merged and five plane copies. The budget is 1 ms an advance
// (µs/advance), against the ≈ 50 ms between epochs of the ingest_live
// writer.
func BenchmarkCacheAdvance(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	family := func(op table.AggOp, measure int, f0, t0, f1, t1 uint32) table.ScanRequest {
		return table.ScanRequest{Op: op, Measure: measure, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 2, From: f0, To: t0}, {Dim: 1, Level: 2, From: f1, To: t1},
		}}
	}
	countMinMax := func(i int) table.ScanRequest {
		lo := uint32(rng.Intn(400))
		return table.ScanRequest{Op: []table.AggOp{table.AggCount, table.AggMin, table.AggMax}[i%3], Measure: i % 2,
			Predicates: []table.RangePredicate{{Dim: 2, Level: 2, From: lo, To: lo + uint32(rng.Intn(100))}}}
	}
	sumAvg := func(i int) table.ScanRequest {
		f0, f1 := uint32(rng.Intn(256)), uint32(rng.Intn(128))
		return family([]table.AggOp{table.AggSum, table.AggAvg}[i%2], i%2, f0, f0+uint32(rng.Intn(256-int(f0))), f1, f1+uint32(rng.Intn(128-int(f1))))
	}
	for _, c := range []struct {
		name    string
		entries int
		entry   func(i int) table.ScanRequest
	}{
		{"entries=count-min-max", 64, countMinMax},
		{"entries=sum-avg", 100, sumAvg},
	} {
		b.Run(c.name, func(b *testing.B) {
			base := genTable(b, 200_000, 1)
			reg, err := table.NewRegistry(table.PaperSchema(), base, nil)
			if err != nil {
				b.Fatal(err)
			}
			at := reg.Current()
			cache := newResultCache(0)
			for _, a := range []struct {
				op      table.AggOp
				measure int
			}{
				{table.AggCount, 0}, {table.AggMin, 0}, {table.AggMin, 1}, {table.AggMax, 0}, {table.AggMax, 1},
			} {
				storeScanned(b, cache, at, family(a.op, a.measure, 0, 255, 0, 127), true)
			}
			for i := 0; i < c.entries; i++ {
				req := c.entry(i)
				storeScanned(b, cache, at, req, false)
				if _, ok := cache.lookup(&req, at); !ok {
					b.Fatalf("entry %d not stored", i)
				}
			}
			if len(cache.anchors) != 5 || len(cache.plain) != c.entries {
				b.Fatalf("cache holds %d anchors and %d plain entries", len(cache.anchors), len(cache.plain))
			}
			held := append(slices.Clone(cache.anchors), cache.plain...)
			stamps := make([]uint64, len(held))
			for i, e := range held {
				stamps[i] = e.last
			}
			next, err := reg.Publish([]*table.FactTable{genTable(b, 1000, 2)}, table.StripeDelta, nil, nil)
			if err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				carried := carry(next, base.Rows(), held, stamps)
				if n := len(carried) - len(slices.DeleteFunc(carried, func(e *cacheEntry) bool { return e == nil })); n > 0 {
					b.Fatalf("lost %d of %d entries", n, len(held))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/advance")
		})
	}
}
