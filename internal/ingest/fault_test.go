package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"hybridolap/internal/fault"
	"hybridolap/internal/table"
)

// TestWALAppendFaultDegradesStore: an injected WAL write error surfaces
// as a typed DurabilityError, the failed batch is not published, and the
// store flips read-only until reopened.
func TestWALAppendFaultDegradesStore(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan(fault.PlanConfig{Seed: 1, Points: map[fault.Point]fault.PointConfig{
		fault.WALAppend: {Rate: 1, After: 2}, // first two batches succeed
	}})
	s, err := Open(Config{Base: baseTable(t, 200, 1), WALPath: filepath.Join(dir, "w.wal"), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2; i++ {
		if _, err := s.Ingest(randBatch(rng, s.Schema(), 5)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if s.Degraded() {
		t.Fatal("degraded before any fault")
	}
	epochBefore := s.Current().Epoch()
	rowsBefore := s.Current().Rows()

	_, err = s.Ingest(randBatch(rng, s.Schema(), 5))
	var de *DurabilityError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DurabilityError", err)
	}
	if de.Op != "append" || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("DurabilityError = %+v (unwraps injected: %v)", de, errors.Is(err, fault.ErrInjected))
	}
	if !s.Degraded() || !s.Stats().Degraded {
		t.Fatal("store not degraded after WAL failure")
	}
	// The failed batch must not have been published.
	if s.Current().Epoch() != epochBefore || s.Current().Rows() != rowsBefore {
		t.Fatal("failed batch was published")
	}

	// Every later ingest is refused with the typed sentinel; queries
	// (snapshot reads) keep working.
	if _, err := s.Ingest(randBatch(rng, s.Schema(), 5)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-degrade err = %v, want ErrDegraded", err)
	}
	if s.Current().Rows() != rowsBefore {
		t.Fatal("reads broken after degrade")
	}
}

// TestWALSyncFaultDegradesStore covers the fsync fault point.
func TestWALSyncFaultDegradesStore(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan(fault.PlanConfig{Seed: 1, Points: map[fault.Point]fault.PointConfig{
		fault.WALSync: {Rate: 1},
	}})
	s, err := Open(Config{Base: baseTable(t, 100, 1), WALPath: filepath.Join(dir, "w.wal"), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.Sync()
	var de *DurabilityError
	if !errors.As(err, &de) || de.Op != "sync" {
		t.Fatalf("err = %v, want sync DurabilityError", err)
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after sync failure")
	}
}

// TestCompactionFaultLeavesDeltasQueryable: an injected compaction
// failure removes nothing, publishes nothing, and is retryable.
func TestCompactionFaultLeavesDeltasQueryable(t *testing.T) {
	plan := fault.NewPlan(fault.PlanConfig{Seed: 3, Points: map[fault.Point]fault.PointConfig{
		fault.Compaction: {Rate: 1, Limit: 1},
	}})
	s, err := Open(Config{Base: baseTable(t, 100, 1), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4; i++ {
		if _, err := s.Ingest(randBatch(rng, s.Schema(), 5)); err != nil {
			t.Fatal(err)
		}
	}
	rows := s.Current().Rows()
	deltas := s.Current().DeltaStripes()

	if _, err := s.CompactOnce(8); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if s.Current().Rows() != rows || s.Current().DeltaStripes() != deltas {
		t.Fatal("failed compaction changed the snapshot")
	}
	if s.Stats().CompactionFailures != 1 {
		t.Fatalf("CompactionFailures = %d", s.Stats().CompactionFailures)
	}
	if s.Degraded() {
		t.Fatal("compaction failure must not degrade the store")
	}

	// Limit=1: the retry succeeds and the deltas fold away.
	n, err := s.CompactOnce(8)
	if err != nil || n != 4 {
		t.Fatalf("retry: n=%d err=%v", n, err)
	}
	if s.Current().Rows() != rows {
		t.Fatal("compaction changed the row count")
	}
}

// TestChaosIngestDurability is the ingest half of the chaos differential
// invariant: under an injected WAL fault plan, every batch the store
// acknowledged is present after recovery, bit-identical, in order.
func TestChaosIngestDurability(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "chaos.wal")
			plan := fault.NewPlan(fault.PlanConfig{Seed: seed, Points: map[fault.Point]fault.PointConfig{
				fault.WALAppend: {Rate: 0.15},
			}})
			s, err := Open(Config{Base: baseTable(t, 300, seed), WALPath: walPath, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(seed * 7))
			var acked []*Batch
			for i := 0; i < 40; i++ {
				b := randBatch(rng, s.Schema(), 3)
				_, err := s.Ingest(b)
				switch {
				case err == nil:
					acked = append(acked, b)
				case errors.Is(err, ErrDegraded):
				default:
					var de *DurabilityError
					if !errors.As(err, &de) {
						t.Fatalf("batch %d: unexpected error %v", i, err)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery: reopen fault-free; the WAL replays exactly the
			// acknowledged batches onto the base.
			s2, err := Open(Config{Base: baseTable(t, 300, seed), WALPath: walPath})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Degraded() {
				t.Fatal("recovered store is degraded")
			}
			wantRows := 0
			for _, b := range acked {
				wantRows += len(b.Rows)
			}
			snap := s2.Current()
			if got := snap.Rows() - 300; got != wantRows {
				t.Fatalf("recovered %d ingested rows, acknowledged %d", got, wantRows)
			}
			if got := s2.Stats().ReplayedBatches; got != int64(len(acked)) {
				t.Fatalf("replayed %d batches, acknowledged %d", got, len(acked))
			}
			// Bit-identical, in order: compare each acknowledged row's
			// measures against the recovered delta stripes.
			var gotMeasures []int32
			for _, st := range snap.Stripes()[1:] {
				gotMeasures = append(gotMeasures, st.Table().MeasureColumn(0)...)
			}
			scale := snap.Schema().MeasureScale(0)
			i := 0
			for bi, b := range acked {
				for ri := range b.Rows {
					if want, err := table.Units(b.Rows[ri].Measures[0], scale); err != nil || gotMeasures[i] != want {
						t.Fatalf("batch %d row %d: measure %v != acknowledged %v",
							bi, ri, gotMeasures[i], b.Rows[ri].Measures[0])
					}
					i++
				}
			}
			// The plan must actually have fired for the run to mean anything.
			if plan.Fired(fault.WALAppend) == 0 {
				t.Fatal("fault plan never fired; raise Rate or batches")
			}
			// Recovered store accepts writes again.
			if _, err := s2.Ingest(randBatch(rng, s2.Schema(), 2)); err != nil {
				t.Fatal("recovered store refuses ingest:", err)
			}
		})
	}
}
