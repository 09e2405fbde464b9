package oracle_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hybridolap/internal/cube"
	"hybridolap/internal/engine"
	"hybridolap/internal/ingest"
	"hybridolap/internal/oracle"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// FuzzRoutes is the one differential of the system: the scheduler may send
// a query to any GPU partition or to the CPU cube, a cluster to any shard
// count, the serving path to the result cache — and every route must
// answer exactly (==, to the bit) what the row-at-a-time oracle answers
// over the same rows. For a query drawn from the corpus it checks, at one
// pinned epoch of a live store:
//
//   - each GPU partition's Execute, and partition 0's with cells granted;
//   - the member as one of K in a fused Execute whose other members share
//     its predicate columns but not its op, measure, intervals or keys —
//     each member must answer as if it ran alone;
//   - the CPU cube walk, where the cube set answers;
//
// over the base table, the 1-, 2- and 4-shard clusters; and, on a fresh
// cache-enabled system, the cache's subsumed hit (after an anchor of the
// query's family), its exact hit and its hit carried across an epoch of
// two ingest batches.
//
// Inputs: the world (schema and size), the query's seed, a fixed case of
// a retired differential (0 draws from the seed instead), the epoch and
// the fan-in.
func FuzzRoutes(f *testing.F) {
	for i := range worldSpecs {
		for qseed := int64(0); qseed < 6; qseed++ {
			f.Add(uint8(i), qseed, uint8(0), uint8(qseed), uint8(qseed))
		}
	}
	for c := range fixedQueries() {
		f.Add(uint8(c%2), int64(c), uint8(c+1), uint8(c), uint8(c))
	}
	f.Fuzz(func(t *testing.T, wi uint8, qseed int64, fixed uint8, epoch uint8, fanIn uint8) {
		w := worldFor(t, int(wi)%len(worldSpecs))
		rng := rand.New(rand.NewSource(qseed))
		q := w.query(rng)
		if fixed > 0 && !w.spec.tpcds {
			fq := fixedQueries()
			q = fq[int(fixed-1)%len(fq)]
		}
		snap := w.epochs[int(epoch)%len(w.epochs)]
		checkScans(t, w, q, snap, rng, 2+int(fanIn)%5)
		checkClusters(t, w, q)
		checkCache(t, w, q, rng)
	})
}

// answer is a finalised answer of either shape.
type answer struct {
	r table.ScanResult
	g []table.GroupRow
}

func (a answer) String() string { return fmt.Sprintf("%+v %+v", a.r, a.g) }

// same reports bit-identity: rows, value bits, and every group's keys.
func same(a, b answer) bool {
	eq := func(x, y table.ScanResult) bool {
		return x.Rows == y.Rows && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	}
	if !eq(a.r, b.r) || len(a.g) != len(b.g) {
		return false
	}
	for i := range a.g {
		if !eq(table.ScanResult{Value: a.g[i].Value, Rows: a.g[i].Rows}, table.ScanResult{Value: b.g[i].Value, Rows: b.g[i].Rows}) ||
			table.PackKey(a.g[i].Keys) != table.PackKey(b.g[i].Keys) {
			return false
		}
	}
	return true
}

// member translates q against dicts and decomposes it; empty reports a
// translation that proved no row matches.
func member(t *testing.T, q *query.Query, dicts *table.Dictionaries, s *table.Schema) (qq *query.Query, m table.Member, empty bool) {
	t.Helper()
	qq = q.Clone()
	if _, err := query.Translate(qq, dicts); err != nil {
		t.Fatalf("translate %+v: %v", q, err)
	}
	m, empty, err := qq.Member(s)
	if err != nil {
		t.Fatalf("member of %+v: %v", qq, err)
	}
	return qq, m, empty
}

// want is the oracle's answer to m over snap.
func want(t *testing.T, snap *table.Snapshot, m table.Member) answer {
	t.Helper()
	st, err := oracle.Snapshot(snap, m)
	if err != nil {
		t.Fatalf("oracle %+v: %v", m, err)
	}
	r, g := oracle.Final(snap.Schema(), m, st)
	return answer{r, g}
}

// checkScans checks every GPU partition, a fused kernel and the cube walk
// at epoch snap.
func checkScans(t *testing.T, w *world, q *query.Query, snap *table.Snapshot, rng *rand.Rand, k int) {
	t.Helper()
	qq, m, empty := member(t, q, w.dicts, w.ft.Schema())
	if empty {
		return
	}
	ref := want(t, snap, m)
	where := fmt.Sprintf("epoch %d (%d rows, %d stripes) query %+v", snap.Epoch(), snap.Rows(), len(snap.Stripes()), qq)
	for _, p := range w.dev.Partitions() {
		ans, err := p.Execute(snap, []table.Member{m})
		if err != nil {
			t.Fatalf("%s: partition %d: %v", where, p.ID(), err)
		}
		if got := (answer{ans[0].Result, ans[0].Groups}); !same(got, ref) {
			t.Fatalf("%s: partition %d (%d SMs) answers %v, oracle %v", where, p.ID(), p.SMs(), got, ref)
		}
	}
	if len(m.GroupBy) == 0 {
		cells := m
		cells.Cells = true
		ans, err := w.dev.Partitions()[0].Execute(snap, []table.Member{cells})
		if err != nil || !same(answer{r: ans[0].Result}, ref) {
			t.Fatalf("%s: cells asked: %+v, %v; oracle %v", where, ans, err, ref)
		}
	}

	// K members of one fusion family, m among them.
	members := make([]table.Member, k)
	at := rng.Intn(k)
	for i := range members {
		if i == at {
			members[i] = m
			continue
		}
		members[i] = sibling(rng, w.ft.Schema(), m)
	}
	p := w.dev.Partitions()[rng.Intn(len(w.dev.Partitions()))]
	fused, err := p.Execute(snap, members)
	if err != nil {
		t.Fatalf("%s: fused on partition %d: %v", where, p.ID(), err)
	}
	for i, mi := range members {
		if got, solo := (answer{fused[i].Result, fused[i].Groups}), want(t, snap, mi); !same(got, solo) {
			t.Fatalf("%s: member %d of %d fused on partition %d (%+v) answers %v, alone %v", where, i, k, p.ID(), mi, got, solo)
		}
	}

	cs, _ := snap.Aux().(*cube.Set)
	if cs == nil {
		cs = w.cubes
	}
	if !cubeAnswers(qq, cs) {
		return
	}
	for _, threads := range []int{1, 8} {
		st, err := engine.CubeWalk(qq, cs, threads)
		if err != nil {
			t.Fatalf("%s: cube walk: %v", where, err)
		}
		if st.Groups == nil && len(m.GroupBy) > 0 {
			st.Groups = table.Groups{} // an empty box walks nothing
		}
		r, g := oracle.Final(snap.Schema(), m, st)
		if got := (answer{r, g}); !same(got, ref) {
			t.Fatalf("%s: cube walk (%d threads) answers %v, oracle %v", where, threads, got, ref)
		}
	}
}

// cubeAnswers reports whether the CPU side answers q from cs: no text
// predicate or key, the cubes' measure (or a count), and a level fine
// enough.
func cubeAnswers(q *query.Query, cs *cube.Set) bool {
	if q.GPUOnly() || q.Op != table.AggCount && q.Measure != cs.Measure() {
		return false
	}
	_, ok := q.SubCubeBytes(cs)
	return ok
}

// sibling draws a member that filters m's columns with its own intervals,
// op and measure, and sometimes its own keys or a cell grant.
func sibling(rng *rand.Rand, s *table.Schema, m table.Member) table.Member {
	o := table.Member{ScanRequest: table.ScanRequest{Op: table.AggOp(rng.Intn(5)), Measure: rng.Intn(len(s.Measures))}}
	for _, p := range m.Predicates {
		card := 1 << 9
		if !p.Text {
			card = s.LevelCardinality(p.Dim, p.Level)
		}
		p.Or = nil
		p.From, p.To = uint32(rng.Intn(card)), uint32(rng.Intn(card))
		if rng.Intn(3) == 0 {
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				c := uint32(rng.Intn(card))
				p.Or = append(p.Or, table.CodeRange{From: c, To: c + uint32(rng.Intn(3))})
			}
		}
		o.Predicates = append(o.Predicates, p)
	}
	rng.Shuffle(len(o.Predicates), func(a, b int) { o.Predicates[a], o.Predicates[b] = o.Predicates[b], o.Predicates[a] })
	switch rng.Intn(4) {
	case 0:
		o.Cells = true
	case 1:
		d := rng.Intn(len(s.Dimensions))
		o.GroupBy = []table.GroupCol{{Dim: d, Level: rng.Intn(len(s.Dimensions[d].Levels))}}
	}
	return o
}

// checkClusters checks the 1-, 2- and 4-shard clusters over the base
// table.
func checkClusters(t *testing.T, w *world, q *query.Query) {
	t.Helper()
	qq, m, empty := member(t, q, w.ft.Dicts(), w.ft.Schema())
	var ref answer
	if !empty {
		ref = want(t, w.epochs[0], m)
	}
	for _, c := range w.clusters {
		res, err := c.Query(q.Clone())
		if err != nil {
			t.Fatalf("%d shards, query %+v: %v", c.Shards(), qq, err)
		}
		if got := (answer{table.ScanResult{Value: res.Value, Rows: res.Rows}, res.Groups}); !same(got, ref) {
			t.Fatalf("%d shards, query %+v: answers %v, oracle %v", c.Shards(), qq, got, ref)
		}
	}
}

// checkCache serves q on a fresh live system with the cache and fusion
// window on: after an anchor of its family (a subsumed hit, where the
// anchor is GPU-bound and so asks the kernel for cells), again (an exact
// hit) and after two ingest batches (a hit carried across the epoch). A
// grouped query bypasses the cache and an empty translation short-cuts
// it: they are only checked for their answers.
func checkCache(t *testing.T, w *world, q *query.Query, rng *rand.Rand) {
	t.Helper()
	store, err := ingest.Open(ingest.Config{Base: w.ft, Cubes: w.cubes})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sys, err := engine.New(engine.Config{Table: w.ft, Cubes: w.cubes, Device: w.dev, Live: store,
		FusionEnabled: true, CacheEnabled: true, Sched: sched.Config{DeadlineSeconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, before, empty := member(t, q, store.Dicts(), w.ft.Schema())
	cached := !empty && !q.Grouped()
	serve := func(arm string, q *query.Query) engine.ServeOutcome {
		t.Helper()
		snap := store.Current()
		out, err := sys.Serve(q)
		if err != nil {
			t.Fatalf("%s: serve %+v: %v", arm, q, err)
		}
		ref := answer{}
		if _, m, empty := member(t, q, store.Dicts(), w.ft.Schema()); !empty {
			ref = want(t, snap, m)
		}
		if got := (answer{out.Result, out.Groups}); !same(got, ref) {
			t.Fatalf("%s (epoch %d, hit=%v subsumed=%v): %+v answers %v, oracle %v",
				arm, snap.Epoch(), out.CacheHit, out.Subsumed, q, got, ref)
		}
		return out
	}
	if a := anchor(w.ft.Schema(), q); a != nil && cached && !cubeAnswers(a, w.cubes) {
		serve("anchor", a)
		if out := serve("subsumed", q); !out.Subsumed {
			t.Fatalf("subsumed: %+v after its anchor %+v: %+v", q, a, out)
		}
	} else {
		serve("miss", q)
	}
	if out := serve("exact", q); cached && !out.CacheHit {
		t.Fatalf("exact: %+v served twice missed the cache", q)
	}
	for i := 0; i < 2; i++ {
		if _, err := store.Ingest(&ingest.Batch{Rows: w.batches[rng.Intn(len(w.batches))]}); err != nil {
			t.Fatal(err)
		}
	}
	// A string the batches added to a dictionary changes the translation,
	// and so the key: that is a miss.
	_, after, _ := member(t, q, store.Dicts(), w.ft.Schema())
	if out := serve("carried", q); cached && reflect.DeepEqual(before, after) && !out.CacheHit {
		t.Fatalf("carried: %+v missed the cache after an ingest", q)
	}
}

// anchor returns the widest query of q's cell-shaped family — every
// condition over its level's whole cardinality — or nil when q is not
// one the cache folds (count, min or max over plain ranges inside their
// levels), the family's plane is too large to keep, or q is its own
// anchor.
func anchor(s *table.Schema, q *query.Query) *query.Query {
	if len(q.TextConds) > 0 || len(q.Conditions) == 0 || q.Grouped() ||
		q.Op != table.AggCount && q.Op != table.AggMin && q.Op != table.AggMax {
		return nil
	}
	a := q.Clone()
	whole, cells := true, 1
	for i := range a.Conditions {
		c := &a.Conditions[i]
		card := s.LevelCardinality(c.Dim, c.Level)
		if c.From <= c.To && int(c.To) >= card {
			return nil
		}
		whole = whole && c.From == 0 && int(c.To) == card-1
		c.From, c.To = 0, uint32(card-1)
		cells *= card
	}
	if whole || cells > 1<<16 {
		return nil
	}
	return a
}
