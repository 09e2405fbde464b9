package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

func liveSystem(t testing.TB, rows int) *System {
	t.Helper()
	s, err := Setup(SetupSpec{Rows: rows, Seed: 1, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Live().Close(); err != nil {
			t.Errorf("closing live store: %v", err)
		}
	})
	return s
}

// liveRow builds a valid paper-schema row (3 dims, 2 measures, 2 texts)
// whose text values never collide with generated names.
func liveRow(i int) table.Row {
	return table.Row{
		Coords:   []int{i % 1024, i % 512, i % 2048},
		Measures: []float64{float64(i%100) + 0.5, float64(i % 7)},
		Texts: []string{
			fmt.Sprintf("live store #%d", i%5),
			fmt.Sprintf("live city %d", i%3),
		},
	}
}

func TestLiveIngestVisibleToRunReal(t *testing.T) {
	s := liveSystem(t, 2000)

	var want float64
	var wantRows int64
	rows := make([]table.Row, 10)
	for i := range rows {
		rows[i] = liveRow(i)
		if i%5 == 0 {
			want += rows[i].Measures[0]
			wantRows++
		}
	}
	snap, err := s.Ingest(&ingest.Batch{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() == 0 {
		t.Fatal("epoch did not advance")
	}

	// The string is novel, so only the ingested rows can match; the text
	// predicate exercises append-dictionary translation inside Serve.
	q, err := query.Parse("SELECT sum(sales) WHERE store_name = 'live store #0'",
		s.Config().Table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Serve(q)
	if err != nil {
		t.Fatal(err)
	}
	if o.Result.Rows != wantRows || math.Abs(o.Result.Value-want) > 1e-9 {
		t.Fatalf("got (%v, %d), want (%v, %d)", o.Result.Value, o.Result.Rows, want, wantRows)
	}

	// A grouped dimension query over the live snapshot matches the
	// from-scratch scan reference at the same (quiescent) epoch.
	gq := &query.Query{
		Conditions: []query.Condition{{Dim: 0, Level: 0, From: 0, To: 3}},
		GroupBy:    []query.GroupRef{{Dim: 0, Level: 0}},
		Measure:    0, Op: table.AggSum,
	}
	got, err := s.Serve(gq)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.ReferenceGroups(gq)
	if err != nil {
		t.Fatal(err)
	}
	groupRowsBits(t, got.Groups, ref, "live-grouped")
}

// TestLiveConcurrentIngestQueryCompact drives writers, scalar and grouped
// Serve readers (fusion and cache on), and the background compactor
// against one live system; run with -race this is the engine-level
// concurrency check for the write path — and for the cache's advance, which
// the readers race each other into at every epoch the writers and the
// compactor publish.
func TestLiveConcurrentIngestQueryCompact(t *testing.T) {
	const baseRows, writers, batches, perBatch = 2000, 2, 10, 20
	s, err := Setup(SetupSpec{Rows: baseRows, Seed: 1, Live: true, Fusion: true, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Live().Close(); err != nil {
			t.Errorf("closing live store: %v", err)
		}
	})
	store := s.Live()
	// One query per Serve route, exact ops only (count/min/max compare with
	// == against the sequential reference): a cube walk that bypasses the
	// window, a full-domain anchor whose cells every advance merges, a
	// GPU-bound window member it subsumes, and a text predicate on a string
	// only ingested rows carry.
	served := []*query.Query{
		{Op: table.AggCount},
		{Conditions: []query.Condition{{Dim: 0, Level: 2, From: 0, To: 255}, {Dim: 1, Level: 2, From: 0, To: 127}}, Op: table.AggCount},
		{Conditions: []query.Condition{{Dim: 0, Level: 1, From: 1, To: 20}}, Op: table.AggMax},
		serveFamilyQuery(rand.New(rand.NewSource(4)), table.AggCount, 0),
		{TextConds: []query.TextCondition{{Column: "customer_city", From: "live city 1", To: "live city 1"}}, Op: table.AggMin, Measure: 1},
	}
	if store.StartCompactor(ingest.CompactorConfig{MinDeltas: 2, Interval: time.Millisecond}) == nil {
		t.Fatal("compactor did not start")
	}

	var wWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(w int) {
			defer wWG.Done()
			for b := 0; b < batches; b++ {
				rows := make([]table.Row, perBatch)
				for i := range rows {
					rows[i] = liveRow(w*10_000 + b*perBatch + i)
				}
				if _, err := s.Ingest(&ingest.Batch{Rows: rows}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	total := int64(baseRows + writers*batches*perBatch)
	stop := make(chan struct{})
	var rWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		rWG.Add(1)
		go func() {
			defer rWG.Done()
			gq := &query.Query{
				GroupBy: []query.GroupRef{{Dim: 1, Level: 1}},
				Measure: 0, Op: table.AggCount,
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				q, err := query.Parse("SELECT count(*)", s.Config().Table.Schema())
				if err != nil {
					t.Error(err)
					return
				}
				o, err := s.Serve(q)
				if err != nil {
					t.Error(err)
					return
				}
				// Each query pins one epoch: it sees at least the base
				// stripe and never rows beyond the final total.
				if o.Result.Rows < baseRows || o.Result.Rows > total {
					t.Errorf("count = %d outside [%d, %d]", o.Result.Rows, baseRows, total)
					return
				}
				if _, err := s.Serve(gq.Clone()); err != nil {
					t.Error(err)
					return
				}
				for _, sq := range served {
					out, err := s.Serve(sq)
					if err != nil {
						t.Error(err)
						return
					}
					if out.Result.Rows > total {
						t.Errorf("served %d rows, more than were ever written (%d)", out.Result.Rows, total)
						return
					}
				}
			}
		}()
	}

	wWG.Wait()
	close(stop)
	rWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	deadline := time.Now().Add(5 * time.Second)
	for store.Stats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if store.Stats().Compactions == 0 {
		t.Fatal("compactor never ran")
	}
	if st := s.Scheduler().Stats(); st.MaintenanceJobs == 0 {
		t.Fatal("compaction booked no maintenance jobs on the scheduler")
	}
	if n := int64(store.Current().Rows()); n != total {
		t.Fatalf("final rows = %d, want %d", n, total)
	}

	// Quiescent count(*) sees every acknowledged row exactly once.
	q, err := query.Parse("SELECT count(*)", s.Config().Table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if o, err := s.Serve(q); err != nil || o.Result.Rows != total {
		t.Fatalf("final count = (%d, %v), want %d", o.Result.Rows, err, total)
	}

	// Serve caches what it answered under the epoch it pinned and carries it
	// to the epochs after, so whatever the racing readers left behind, a
	// re-serve now — a hit, a fold or a fresh execution, the compactor may
	// still publish an epoch between the two — is the final row set's answer.
	for i, sq := range served {
		want, err := s.Reference(sq)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			out, err := s.Serve(sq)
			if err != nil {
				t.Fatal(err)
			}
			if out.Result != want {
				t.Fatalf("served query %d pass %d: %+v, want %+v", i, pass, out, want)
			}
		}
	}
	if cs := s.CacheStats(); cs.Stores == 0 || cs.Hits == 0 || cs.Carried == 0 {
		t.Fatalf("Serve never stored, never hit or never carried an entry: %+v", cs)
	}
}
