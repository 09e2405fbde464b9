package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// resultBits compares two scan results bit-for-bit.
func resultBits(a, b table.ScanResult) bool {
	return a.Rows == b.Rows && math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// cacheReq fabricates a one-predicate request for cache unit tests.
func cacheReq(op table.AggOp, from, to uint32) table.ScanRequest {
	return table.ScanRequest{Op: op, Measure: 0, Predicates: []table.RangePredicate{
		{Dim: 0, Level: 1, From: from, To: to},
	}}
}

// genTable generates a paper-schema fact table.
func genTable(t testing.TB, rows int, seed int64) *table.FactTable {
	t.Helper()
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// cacheEpochs returns the snapshots of epochs 0..n of a registry over base:
// one 50-row delta stripe per epoch after the first.
func cacheEpochs(t testing.TB, base *table.FactTable, n int) []*table.Snapshot {
	t.Helper()
	reg, err := table.NewRegistry(table.PaperSchema(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*table.Snapshot{reg.Current()}
	for e := 1; e <= n; e++ {
		snap, err := reg.Publish([]*table.FactTable{genTable(t, 50, int64(e+1))}, table.StripeDelta, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

// storeScanned answers req over the snapshot — per cell when cells is set,
// and otherwise as the fold grid folds it (gpusim.Continue from row 0
// continues an empty fold over every row: ExecuteFused's fold) — and
// stores the answer there, as a fused job would.
func storeScanned(t testing.TB, c *resultCache, at *table.Snapshot, req table.ScanRequest, cells bool) {
	t.Helper()
	m := table.Member{ScanRequest: req, Cells: cells}
	pl, err := table.Bind(at.Stripes()[0].Table(), []table.Member{m})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Keyed(0) != cells {
		t.Fatalf("%v over %+v: cells granted = %v, want %v", req.Op, req.Predicates, pl.Keyed(0), cells)
	}
	var ans gpusim.FusedAnswer
	if !cells {
		ans.Fold = new(gpusim.Fold)
	}
	st := make([]table.State, 1)
	if err := gpusim.Continue(at, 0, []table.Member{m}, []*gpusim.Fold{ans.Fold}, st); err != nil {
		t.Fatal(err)
	}
	if cells {
		ans.Cells, ans.Result = st[0].Groups, table.Finalize(req.Op, table.FoldCells(req.Op, st[0].Groups))
	} else {
		ans.Result = ans.Fold.Answer(req.Op, at.Rows())
	}
	c.store(&req, at, ans, sched.QueueRef{Kind: sched.QueueGPU, Index: 1})
}

func TestResultCacheExactKeepFirstEviction(t *testing.T) {
	c := newResultCache(2)
	at := cacheEpochs(t, genTable(t, 200, 1), 0)[0]
	q1 := cacheReq(table.AggSum, 3, 9)
	r1 := table.ScanResult{Value: 42.5, Rows: 7}
	qr := sched.QueueRef{Kind: sched.QueueGPU, Index: 2}
	c.store(&q1, at, gpusim.FusedAnswer{Result: r1}, qr)

	ans, ok := c.lookup(&q1, at)
	if !ok || !resultBits(ans.result, r1) || ans.queue != qr || ans.subsumed {
		t.Fatalf("exact lookup: ok=%v ans=%+v", ok, ans)
	}

	// A different interval on the same column is a different key.
	q2 := cacheReq(table.AggSum, 3, 10)
	if _, ok := c.lookup(&q2, at); ok {
		t.Fatal("different interval hit the cache")
	}

	// Keep-first: a second store under the same key must not flap the bits.
	c.store(&q1, at, gpusim.FusedAnswer{Result: table.ScanResult{Value: 99, Rows: 7}}, sched.QueueRef{Kind: sched.QueueGPU, Index: 5})
	if ans, ok := c.lookup(&q1, at); !ok || !resultBits(ans.result, r1) || ans.queue != qr {
		t.Fatalf("keep-first violated: %+v", ans)
	}

	// FIFO eviction at max=2: storing a third entry evicts q1.
	c.store(&q2, at, gpusim.FusedAnswer{Result: table.ScanResult{Value: 1, Rows: 1}}, qr)
	q3 := cacheReq(table.AggSum, 0, 1)
	c.store(&q3, at, gpusim.FusedAnswer{Result: table.ScanResult{Value: 2, Rows: 2}}, qr)
	if _, ok := c.lookup(&q1, at); ok {
		t.Fatal("FIFO eviction kept the oldest entry")
	}
	if _, ok := c.lookup(&q2, at); !ok {
		t.Fatal("eviction dropped a younger entry")
	}
	st := c.snapshotStats()
	if st.Evictions != 1 || st.Stores != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestResultCacheEpochOwnership pins what an epoch does to the cache at the
// unit level: older pinned epochs miss and cannot store, a newer one
// carries a count/min/max entry by a fold of the new rows only and drops a
// sum/avg stored without a fold (as the CPU stores it).
func TestResultCacheEpochOwnership(t *testing.T) {
	c := newResultCache(0)
	at := cacheEpochs(t, genTable(t, 200, 1), 3)
	scan := func(q table.ScanRequest, snap *table.Snapshot) table.ScanResult {
		t.Helper()
		r, err := table.ScanSnapshot(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	q := cacheReq(table.AggCount, 0, 5)
	c.store(&q, at[1], gpusim.FusedAnswer{Result: scan(q, at[1])}, sched.QueueRef{})
	if _, ok := c.lookup(&q, at[1]); !ok {
		t.Fatal("store at epoch 1 not visible")
	}

	// An older pinned epoch misses without disturbing the current entries.
	if _, ok := c.lookup(&q, at[0]); ok {
		t.Fatal("stale-epoch lookup hit")
	}
	if _, ok := c.lookup(&q, at[1]); !ok {
		t.Fatal("stale-epoch lookup wiped current entries")
	}
	// A stale store is dropped.
	q2 := cacheReq(table.AggCount, 0, 9)
	c.store(&q2, at[0], gpusim.FusedAnswer{Result: scan(q2, at[0])}, sched.QueueRef{})
	if _, ok := c.lookup(&q2, at[1]); ok {
		t.Fatal("stale-epoch store was kept")
	}

	// A newer epoch carries the count and drops the sum, used once,
	// exactly once.
	sum := cacheReq(table.AggSum, 0, 5)
	c.store(&sum, at[1], gpusim.FusedAnswer{Result: scan(sum, at[1])}, sched.QueueRef{})
	if _, ok := c.lookup(&sum, at[1]); !ok {
		t.Fatal("sum not stored")
	}
	if ans, ok := c.lookup(&q, at[2]); !ok || !resultBits(ans.result, scan(q, at[2])) {
		t.Fatalf("count not carried to epoch 2: ok=%v %+v, want %+v", ok, ans.result, scan(q, at[2]))
	}
	if _, ok := c.lookup(&sum, at[2]); ok {
		t.Fatal("sum survived epoch publication")
	}
	if st := c.snapshotStats(); st.EpochInvalidations != 1 || st.Carried != 1 || st.Dropped != 1 || st.Expired != 0 {
		t.Fatalf("after epoch 2: %+v, want 1 invalidation, 1 carried, 1 dropped", st)
	}
	// The old epoch is now the stale one.
	if _, ok := c.lookup(&q, at[1]); ok {
		t.Fatal("lookup at the superseded epoch hit")
	}
	// An epoch that drops nothing is not an invalidation.
	if ans, ok := c.lookup(&q, at[3]); !ok || !resultBits(ans.result, scan(q, at[3])) {
		t.Fatalf("count not carried to epoch 3: ok=%v %+v", ok, ans.result)
	}
	if st := c.snapshotStats(); st.EpochInvalidations != 1 || st.Carried != 2 || st.Dropped != 1 {
		t.Fatalf("after epoch 3: %+v, want 1 invalidation, 2 carried, 1 dropped", st)
	}
}

// TestServeCacheEvictionUnlinksAnchor pins the two eviction classes: plain
// stores, however many, evict only plain entries, so an anchor keeps
// serving folds; only the anchor past maxAnchors evicts one — the oldest,
// which stops serving folds while the younger ones go on; and an advance
// puts every carried entry back in its own class.
func TestServeCacheEvictionUnlinksAnchor(t *testing.T) {
	ft := genTable(t, 2000, 3)
	snaps := cacheEpochs(t, ft, 1)
	at := snaps[0]
	const max = 8
	c := newResultCache(max)
	month := func(op table.AggOp, from, to uint32) table.ScanRequest {
		return table.ScanRequest{Op: op, Predicates: []table.RangePredicate{{Dim: 0, Level: 1, From: from, To: to}}}
	}
	storeAnchor := func(req table.ScanRequest) { storeScanned(t, c, at, req, true) }
	storePlain := func(n int) {
		for i := 0; i < n; i++ {
			// Counts over another column: no anchor contains them, and an
			// advance carries them.
			q := table.ScanRequest{Op: table.AggCount, Predicates: []table.RangePredicate{
				{Dim: 2, Level: 2, From: uint32(c.snapshotStats().Stores), To: 511}}}
			storeScanned(t, c, at, q, false)
		}
	}
	folds := func(req table.ScanRequest, at *table.Snapshot) bool {
		t.Helper()
		ans, ok := c.lookup(&req, at)
		if !ok {
			return false
		}
		want, err := table.ScanSnapshot(at, req)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.subsumed || !resultBits(ans.result, want) {
			t.Fatalf("lookup %+v: %+v, want a fold equal to %+v", req.Predicates, ans, want)
		}
		return true
	}

	storeAnchor(month(table.AggCount, 0, 31))
	storePlain(max + 100)
	if st := c.snapshotStats(); st.Evictions != 100 || len(c.anchors) != 1 || len(c.plain) != max {
		t.Fatalf("after %d plain stores: %+v, %d anchors, %d plain entries", max+100, st, len(c.anchors), len(c.plain))
	}
	if !folds(month(table.AggCount, 0, 17), at) {
		t.Fatal("plain stores evicted the anchor")
	}

	// Anchors 2..16 fit beside the first; the 17th evicts it and nothing
	// else. Anchor i covers months [i-1, 31]: only the first contains 0.
	for i := uint32(1); i < maxAnchors; i++ {
		storeAnchor(month(table.AggCount, i, 31))
	}
	if !folds(month(table.AggCount, 0, 17), at) {
		t.Fatalf("the first of %d anchors serves no fold", maxAnchors)
	}
	storeAnchor(month(table.AggCount, maxAnchors, 31))
	if folds(month(table.AggCount, 0, 17), at) {
		t.Fatal("an evicted anchor still serves folds")
	}
	if !folds(month(table.AggCount, 1, 17), at) {
		t.Fatal("evicting the oldest anchor unlinked a younger one")
	}
	if st := c.snapshotStats(); st.Evictions != 101 || len(c.anchors) != maxAnchors || len(c.plain) != max {
		t.Fatalf("after the 17th anchor: %+v, %d anchors, %d plain entries", st, len(c.anchors), len(c.plain))
	}

	// The next epoch: both lists are rebuilt, each entry in its class, and
	// the classes still evict apart.
	next := snaps[1]
	if !folds(month(table.AggCount, 1, 17), next) {
		t.Fatal("a carried anchor serves no fold")
	}
	if len(c.anchors) != maxAnchors || len(c.plain) != max || len(c.entries) != maxAnchors+max {
		t.Fatalf("after the advance: %d anchors, %d plain entries, %d keys", len(c.anchors), len(c.plain), len(c.entries))
	}
	for _, e := range c.anchors {
		if e.cells == nil {
			t.Fatalf("plain entry %q among the anchors", e.key)
		}
	}
	for _, e := range c.plain {
		if e.cells != nil {
			t.Fatalf("anchor %q among the plain entries", e.key)
		}
	}
}

// TestResultCacheSubsumptionFold pins the subsumption soundness rule: a
// count/min/max request whose intervals are contained in a cached entry's
// intervals is folded from the entry's cells, bit-identical to scanning
// the narrowed request directly; sum/avg never subsume.
func TestResultCacheSubsumptionFold(t *testing.T) {
	ft := genTable(t, 4000, 3)
	at := cacheEpochs(t, ft, 0)[0]
	rng := rand.New(rand.NewSource(17))
	shapes := [][]table.RangePredicate{
		{{Dim: 0, Level: 1, From: 2, To: 29}, {Dim: 2, Level: 1, From: 1, To: 30}},
		{{Dim: 0, Level: 1, From: 2, To: 29}, {Dim: 1, Level: 1, From: 0, To: 15}, {Dim: 2, Level: 0, From: 1, To: 3}},
	}
	for i, op := range []table.AggOp{table.AggCount, table.AggMin, table.AggMax, table.AggCount} {
		c := newResultCache(0)
		outer := table.ScanRequest{Op: op, Measure: 0, Predicates: shapes[i%len(shapes)]}
		storeScanned(t, c, at, outer, true)

		for i := 0; i < 25; i++ {
			inner := outer
			inner.Predicates = append([]table.RangePredicate(nil), outer.Predicates...)
			for pi := range inner.Predicates {
				p := &inner.Predicates[pi]
				w := p.To - p.From
				lo := p.From + uint32(rng.Intn(int(w)+1))
				hi := lo + uint32(rng.Intn(int(p.To-lo)+1))
				p.From, p.To = lo, hi
			}
			ans, ok := c.lookup(&inner, at)
			exact := true
			for pi := range inner.Predicates {
				if inner.Predicates[pi].From != outer.Predicates[pi].From ||
					inner.Predicates[pi].To != outer.Predicates[pi].To {
					exact = false
				}
			}
			if exact {
				continue // exact key, not the subsumption path
			}
			if !ok || !ans.subsumed {
				t.Fatalf("op %v case %d: no subsumption hit (%+v)", op, i, inner.Predicates)
			}
			want, err := table.Scan(ft, inner)
			if err != nil {
				t.Fatal(err)
			}
			if !resultBits(ans.result, want) {
				t.Fatalf("op %v case %d: subsumed fold (%v, %d) != scan (%v, %d)",
					op, i, ans.result.Value, ans.result.Rows, want.Value, want.Rows)
			}
		}

		// Not contained → miss; different op → different signature → miss.
		wide := outer
		wide.Predicates = append([]table.RangePredicate(nil), outer.Predicates...)
		wide.Predicates[0].From = 0
		if _, ok := c.lookup(&wide, at); ok {
			t.Fatalf("op %v: non-contained interval subsumed", op)
		}
		sum := outer
		sum.Op = table.AggSum
		if _, ok := c.lookup(&sum, at); ok {
			t.Fatalf("sum lookup subsumed from %v cells", op)
		}
	}
}

// serveFamilyQuery builds one GPU-bound member of a compatible family:
// level-2 conditions defeat the {0,1} cube set, so the fusion window sees
// it, and every member shares the (dim0 level2, dim1 level2) column set.
func serveFamilyQuery(rng *rand.Rand, op table.AggOp, measure int) *query.Query {
	sub := func(card int) (uint32, uint32) {
		lo := rng.Intn(card)
		hi := lo + rng.Intn(card-lo)
		return uint32(lo), uint32(hi)
	}
	f0, t0 := sub(256)
	f1, t1 := sub(128)
	return &query.Query{
		Conditions: []query.Condition{
			{Dim: 0, Level: 2, From: f0, To: t0},
			{Dim: 1, Level: 2, From: f1, To: t1},
		},
		Measure: measure,
		Op:      op,
	}
}

// serveTogether serves qs — compatible GPU-bound cache misses — as ONE
// fused job, without depending on how the scheduler interleaves them: it
// pins the arriving count at +1 (a partner that never comes, so the window
// cannot close on idle), waits until one open window holds every query,
// then releases the pin. The system's FusionWindow and deadline must
// outlast the wait.
func serveTogether(t *testing.T, s *System, qs []*query.Query) []ServeOutcome {
	t.Helper()
	s.arriving.Add(1)
	outs := make([]ServeOutcome, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Serve(qs[i])
		}(i)
	}
	joined := 0
	for giveUp := time.Now().Add(20 * time.Second); joined < len(qs) && time.Now().Before(giveUp); {
		time.Sleep(50 * time.Microsecond)
		s.fusionMu.Lock()
		for _, g := range s.fusionGroups {
			joined = max(joined, len(g.members))
		}
		s.fusionMu.Unlock()
	}
	s.settle()
	wg.Wait()
	if joined < len(qs) {
		t.Fatalf("only %d of %d queries joined one window", joined, len(qs))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	return outs
}

// TestServeFusedDifferential is the serving-path soundness pin: K
// compatible queries inside Serve together run as exactly one fused job
// of fan-in K, and every answer — fused or cached — is bit-identical to a
// fault-free solo recompute on partition 0, whichever partition ran the
// fused job. The 100K-row case spans several blocks of gpusim's fold grid,
// so the shared scan's fork/join and unit-order merge are in the comparison.
func TestServeFusedDifferential(t *testing.T) {
	t.Run("rows=5000", func(t *testing.T) { serveFusedDifferential(t, 5000, 4) })
	t.Run("rows=100000", func(t *testing.T) {
		skipBlocksCaseIfShort(t)
		serveFusedDifferential(t, 100_000, 2)
	})
}

// skipBlocksCaseIfShort keeps the 100K-row cases out of `make
// test-serve-stress`, which passes -short: it repeats the serving tests
// twenty times under the race detector to catch a lost wake-up, and these
// cases check bits over a table that costs ~0.3 s to set up each time. The
// plain, -race and chaos suites run them.
func skipBlocksCaseIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("-short: the several-block case runs in the plain and -race suites")
	}
}

func serveFusedDifferential(t *testing.T, rows, rounds int) {
	s := testSystem(t, func(spec *SetupSpec) {
		spec.Rows = rows
		spec.Fusion = true
		spec.FusionWindow = time.Minute
		spec.DeadlineSeconds = 60
		spec.Cache = true
	})
	rng := rand.New(rand.NewSource(11))
	ops := []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg, table.AggCount}

	for round := 0; round < rounds; round++ {
		k := len(ops)
		qs := make([]*query.Query, k)
		for i := range qs {
			qs[i] = serveFamilyQuery(rng, ops[i], rng.Intn(2))
			qs[i].ID = int64(round*k + i)
		}
		outs := serveTogether(t, s, qs)
		for i := range qs {
			if !outs[i].Fused || outs[i].FanIn != k || outs[i].Queue != outs[0].Queue {
				t.Fatalf("round %d member %d: not one fused job of %d: %+v", round, i, k, outs[i])
			}
			want := faultFreeAt(t, s, qs[i], outs[i].Queue)
			if !resultBits(outs[i].Result, want) {
				t.Fatalf("round %d member %d (op %v, queue %s): got (%v, %d), want (%v, %d)",
					round, i, ops[i], outs[i].Queue,
					outs[i].Result.Value, outs[i].Result.Rows, want.Value, want.Rows)
			}
		}

		// Re-serving one member sequentially must be an exact cache hit
		// replaying the identical bits.
		again, err := s.Serve(qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || again.Subsumed || !resultBits(again.Result, outs[0].Result) {
			t.Fatalf("round %d re-serve: %+v vs first %+v", round, again, outs[0])
		}
	}

	st := s.Scheduler().Stats()
	if st.FusedJobs != int64(rounds) || st.FusedMembers != int64(rounds*len(ops)) || st.PredictedLate != 0 {
		t.Fatalf("want %d fused jobs of %d members, none late: %+v", rounds, len(ops), st)
	}
	if cs := s.CacheStats(); cs.Hits != int64(rounds) || cs.Stores == 0 {
		t.Fatalf("cache never engaged: %+v", cs)
	}
}

// TestServeFusedFallbackKeepsDeadline pins what a failed shared scan costs
// its members: each retries alone, re-booked against its own arrival + T_C
// (a Resubmit) — not a fresh T_C (a Submit) that would forgive the window
// wait and the failed scan — and answers exactly the fault-free answer.
func TestServeFusedFallbackKeepsDeadline(t *testing.T) {
	const k = 5
	mutate := func(spec *SetupSpec) {
		spec.Fusion = true
		spec.FusionWindow = time.Minute
		spec.DeadlineSeconds = 60
	}
	base := testSystem(t, mutate)
	s := testSystem(t, func(spec *SetupSpec) {
		mutate(spec)
		spec.Faults = fault.NewPlan(fault.PlanConfig{Seed: 1, Points: map[fault.Point]fault.PointConfig{
			fault.GPUExec: {Rate: 1, Limit: 1},
		}})
	})
	rng := rand.New(rand.NewSource(13))
	qs := make([]*query.Query, k)
	for i := range qs {
		qs[i] = serveFamilyQuery(rng, table.AggSum, i%2)
		qs[i].ID = int64(i)
	}
	outs := serveTogether(t, s, qs)

	st := s.Scheduler().Stats()
	if st.Submitted != 1 || st.FusedJobs != 1 || st.Resubmitted != k || s.FusionFallbacks() != k {
		t.Fatalf("want 1 fused booking, then %d re-bookings of %d fallbacks: %+v, %d fallbacks",
			k, k, st, s.FusionFallbacks())
	}
	for i, out := range outs {
		if out.Fused || out.Attempts != 1 {
			t.Fatalf("member %d did not retry alone, once: %+v", i, out)
		}
		if want := faultFreeAt(t, base, qs[i], out.Queue); !resultBits(out.Result, want) {
			t.Fatalf("member %d on %s: got (%v, %d), want (%v, %d)",
				i, out.Queue, out.Result.Value, out.Result.Rows, want.Value, want.Rows)
		}
	}
}

// TestServeSubsumption drives the wide-then-narrow flow end to end: a wide
// count executes (fan-in 1) and stores its cells; narrowed counts are then
// answered from the cache by exact interval folds.
func TestServeSubsumption(t *testing.T) {
	s := testSystem(t, func(spec *SetupSpec) {
		spec.Fusion = true
		spec.FusionWindow = time.Millisecond
		spec.Cache = true
	})
	wide := &query.Query{
		Conditions: []query.Condition{
			{Dim: 0, Level: 2, From: 0, To: 255},
			{Dim: 1, Level: 2, From: 0, To: 127},
		},
		Op: table.AggCount,
	}
	out, err := s.Serve(wide)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("first serve hit a cold cache")
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		narrow := wide.Clone()
		narrow.Conditions[0].From = uint32(rng.Intn(200)) + 1
		narrow.Conditions[0].To = narrow.Conditions[0].From + uint32(rng.Intn(40))
		narrow.Conditions[1].To = uint32(100 + rng.Intn(28))
		got, err := s.Serve(narrow)
		if err != nil {
			t.Fatal(err)
		}
		if !got.CacheHit || !got.Subsumed {
			t.Fatalf("case %d: not subsumed: %+v", i, got)
		}
		want, err := s.Reference(narrow)
		if err != nil {
			t.Fatal(err)
		}
		if !resultBits(got.Result, want) {
			t.Fatalf("case %d: subsumed (%v, %d) != reference (%v, %d)",
				i, got.Result.Value, got.Result.Rows, want.Value, want.Rows)
		}
	}
	if cs := s.CacheStats(); cs.SubsumptionHits != 10 {
		t.Fatalf("subsumption hits = %d, want 10 (%+v)", cs.SubsumptionHits, cs)
	}
}

// TestServeLiveEpochInvalidation pins the carry contract end to end: an
// ingest epoch does not cost a cached count its entry — the post-ingest
// serve is a cache hit that already sees the new rows, bit-equal to a
// from-scratch scan of the pinned epoch — nor does it cost a GPU-fused sum
// its entry: the carry continues the sum's fold over the new rows, so its
// post-ingest hit is bit-equal to a recompute on GPU partition 0 at the
// new epoch. Nothing used is lost, so the epoch invalidates nothing.
func TestServeLiveEpochInvalidation(t *testing.T) {
	s, err := Setup(SetupSpec{
		Rows: 2000, Seed: 1, Live: true,
		Fusion: true, FusionWindow: 5 * time.Millisecond, Cache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Live().Close(); err != nil {
			t.Errorf("closing live store: %v", err)
		}
	})

	// Full-range count at level 2: every row matches, so the ingested batch
	// must be visible as an exact row-count delta.
	q := &query.Query{
		Conditions: []query.Condition{
			{Dim: 0, Level: 2, From: 0, To: 255},
			{Dim: 1, Level: 2, From: 0, To: 127},
		},
		Op: table.AggCount,
	}
	sum := q.Clone()
	sum.Op = table.AggSum
	sum.Conditions[0].To = 100
	for _, first := range []*query.Query{q, sum} {
		out, err := s.Serve(first)
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheHit {
			t.Fatalf("first serve hit a cold cache: %+v", out)
		}
		again, err := s.Serve(first)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || !resultBits(again.Result, out.Result) {
			t.Fatalf("re-serve not a cache hit: %+v", again)
		}
	}

	rows := make([]table.Row, 12)
	for i := range rows {
		rows[i] = liveRow(i)
	}
	if _, err := s.Ingest(&ingest.Batch{Rows: rows}); err != nil {
		t.Fatal(err)
	}

	snap := s.pin()
	out, err := s.Serve(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ReferenceAt(q, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit || out.Result.Rows != 2012 || !resultBits(out.Result, want) {
		t.Fatalf("post-ingest count: %+v, want a cache hit of 2012 rows equal to %+v", out, want)
	}
	sumOut, err := s.Serve(sum)
	if err != nil {
		t.Fatal(err)
	}
	if sumOut.Queue.Kind != sched.QueueGPU || !sumOut.CacheHit {
		t.Fatalf("post-ingest sum: %+v, want a cache hit of a GPU answer", sumOut)
	}
	if want := faultFreeAt(t, s, sum, sumOut.Queue); !resultBits(sumOut.Result, want) {
		t.Fatalf("carried sum (%v, %d) != recompute at the new epoch (%v, %d)",
			sumOut.Result.Value, sumOut.Result.Rows, want.Value, want.Rows)
	}
	if cs := s.CacheStats(); cs.EpochInvalidations != 0 || cs.Carried != 2 || cs.Dropped != 0 {
		t.Fatalf("one epoch, a carried count and a carried sum: %+v", cs)
	}
}

// TestChaosServeDifferential runs the serving path under the chaos plan:
// GPU kernel aborts fail fused jobs into individual deadline-aware
// retries, dictionary faults divert to the RunReal translation path, and
// every query that completes must still return bits identical to a
// fault-free recompute (on the CPU if that is where it ended up, on GPU
// partition 0 otherwise).
func TestChaosServeDifferential(t *testing.T) {
	const queries = 48
	const wave = 8
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mutate := func(spec *SetupSpec) {
				spec.Rows = 4000
				spec.Seed = 7 // same table both systems
				spec.QuarantineThreshold = 2
				spec.ReprobeSeconds = 0.02
				spec.Fusion = true
				spec.FusionWindow = 5 * time.Millisecond
				spec.FusionMaxFanIn = wave
				spec.Cache = true
			}
			base := testSystem(t, mutate)
			plan := fault.NewPlan(fault.PlanConfig{Seed: seed, Points: map[fault.Point]fault.PointConfig{
				fault.GPUExec:    {Rate: 0.25},
				fault.DictLookup: {Rate: 0.25},
			}})
			chaos := testSystem(t, func(spec *SetupSpec) {
				mutate(spec)
				spec.Faults = plan
			})

			work := chaosWorkload(t, chaos, seed, queries)
			outs := make([]ServeOutcome, queries)
			errs := make([]error, queries)
			for lo := 0; lo < queries; lo += wave {
				hi := lo + wave
				if hi > queries {
					hi = queries
				}
				var wg sync.WaitGroup
				for i := lo; i < hi; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						outs[i], errs[i] = chaos.Serve(work[i])
					}(i)
				}
				wg.Wait()
			}

			if plan.TotalFired() == 0 {
				t.Fatal("fault plan never fired; the differential is vacuous")
			}
			pristine := chaosWorkload(t, base, seed, queries)
			failed, fused, cached := 0, 0, 0
			for i := range outs {
				if errs[i] != nil {
					failed++ // a spent retry budget is legal; wrong answers are not
					continue
				}
				if outs[i].Fused {
					fused++
				}
				if outs[i].CacheHit {
					cached++
				}
				if !outs[i].CacheHit && outs[i].Attempts == 0 {
					// Empty translation short-circuit: no row can match.
					if outs[i].Result.Rows != 0 {
						t.Fatalf("query %d: empty-translation outcome with %d rows", i, outs[i].Result.Rows)
					}
					continue
				}
				want := faultFreeAt(t, base, pristine[i], outs[i].Queue)
				if !resultBits(outs[i].Result, want) {
					t.Fatalf("query %d (queue %s, fused=%v cache=%v/%v, %d attempts): chaos (%v, %d) != fault-free (%v, %d)",
						i, outs[i].Queue, outs[i].Fused, outs[i].CacheHit, outs[i].Subsumed, outs[i].Attempts,
						outs[i].Result.Value, outs[i].Result.Rows, want.Value, want.Rows)
				}
			}

			// The grouped wave runs after every scalar query, so the scalar
			// arm above sees the fault stream it always did. Groupings
			// alternate between a dimension level (CPU or GPU) and a text
			// column (GPU only).
			groupedWork := func(s *System) []*query.Query {
				qs := chaosWorkload(t, s, seed+100, 2*wave)
				for i, q := range qs {
					q.GroupBy = []query.GroupRef{{Dim: 2, Level: 0}}
					if i%2 == 1 {
						q.GroupBy = []query.GroupRef{{Text: true, Column: "customer_city"}}
					}
				}
				return qs
			}
			gwork := groupedWork(chaos)
			gouts := make([]ServeOutcome, len(gwork))
			gerrs := make([]error, len(gwork))
			for lo := 0; lo < len(gwork); lo += wave {
				var wg sync.WaitGroup
				for i := lo; i < lo+wave; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						gouts[i], gerrs[i] = chaos.Serve(gwork[i])
					}(i)
				}
				wg.Wait()
			}
			gpristine := groupedWork(base)
			gdone, gretried, gcpu := 0, 0, 0
			for i, o := range gouts {
				if gerrs[i] != nil {
					continue // a spent retry budget is legal; wrong answers are not
				}
				gdone++
				if o.Attempts > 1 {
					gretried++
				}
				if o.Queue.Kind == sched.QueueCPU {
					gcpu++
				}
				want := faultFreeGroupsAt(t, base, gpristine[i], o.Queue)
				groupRowsBits(t, o.Groups, want, fmt.Sprintf("grouped query %d (queue %s, %d attempts)", i, o.Queue, o.Attempts))
			}
			if gdone == 0 {
				t.Fatal("no grouped query completed under chaos; the grouped differential is vacuous")
			}
			t.Logf("seed %d: fired=%d failed=%d fused=%d cached=%d grouped=%d/%d (retried %d, cpu %d) sched=%+v cache=%+v",
				seed, plan.TotalFired(), failed, fused, cached, gdone, len(gwork), gretried, gcpu,
				chaos.Scheduler().Stats().FusedJobs, chaos.CacheStats())
		})
	}
}
