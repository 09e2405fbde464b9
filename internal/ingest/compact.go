package ingest

import (
	"fmt"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/table"
)

// CompactorConfig parameterises the background compactor.
type CompactorConfig struct {
	// MinDeltas triggers a compaction cycle once the current snapshot has
	// at least this many delta stripes (default 4).
	MinDeltas int
	// MaxRun caps the stripes merged per cycle (default 16).
	MaxRun int
	// Interval is the poll cadence (default 50ms).
	Interval time.Duration
}

func (c *CompactorConfig) defaults() {
	if c.MinDeltas <= 0 {
		c.MinDeltas = 4
	}
	if c.MaxRun < 2 {
		c.MaxRun = 16
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
}

// Compactor periodically merges runs of small delta stripes into
// base-format stripes. One compactor per store; it is the only remover of
// stripes, so a run chosen from a pinned snapshot stays valid until its
// publish (ingest only ever appends).
type Compactor struct {
	store *Store
	cfg   CompactorConfig
	stop  chan struct{}
	done  chan struct{}
}

// StartCompactor launches the background compactor. It returns nil if one
// is already running.
//
// olaplint:lockorder: the spawned run loop acquires s.mu (via
// CompactOnce) and so blocks until this constructor returns and its
// deferred unlock fires — a bounded startup stall, not a deadlock,
// because the spawner never waits on the goroutine while holding the
// lock.
func (s *Store) StartCompactor(cfg CompactorConfig) *Compactor {
	cfg.defaults()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.compactor != nil || s.closed {
		return nil
	}
	c := &Compactor{
		store: s,
		cfg:   cfg,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.compactor = c
	go c.run()
	return c
}

// run is the compactor loop: wake on a timer, compact while there is
// work, exit when stopped.
func (c *Compactor) run() {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			for c.store.Current().DeltaStripes() >= c.cfg.MinDeltas {
				if _, err := c.store.CompactOnce(c.cfg.MaxRun); err != nil {
					// Leave the deltas in place; the next tick retries.
					break
				}
				select {
				case <-c.stop:
					return
				default:
				}
			}
		}
	}
}

// stopAndWait signals the loop and blocks until it exits.
func (c *Compactor) stopAndWait() {
	close(c.stop)
	<-c.done
}

// CompactOnce merges the oldest contiguous run of delta stripes (at least
// two, at most maxRun) into one base-format stripe and publishes the
// resulting epoch. It returns the number of stripes merged; zero with a
// nil error means there was nothing to compact. Row order is preserved:
// the merged stripe splices into the run's position, so any query at any
// epoch still visits rows in ingest order and results stay bit-identical
// across compactions.
//
// olaplint:epochexempt: maintenance, not a query — the first registry
// read chooses the delta run to fold; the second, under s.mu, reads the
// aux carried by whatever epoch ingest published meanwhile, so the
// publish splices into the latest head rather than a stale one.
func (s *Store) CompactOnce(maxRun int) (int, error) {
	if maxRun < 2 {
		maxRun = 2
	}
	snap := s.reg.Current()
	run := oldestDeltaRun(snap, maxRun)
	if len(run) < 2 {
		return 0, nil
	}
	// A failed compaction is recoverable by design: nothing was removed
	// or published, the delta run stays queryable, and the compactor's
	// next tick simply retries.
	if err := s.faults.Check(fault.Compaction, -1); err != nil {
		s.compactFailures.Add(1)
		return 0, fmt.Errorf("ingest: compaction: %w", err)
	}

	var bytes int64
	rows := 0
	for _, st := range run {
		bytes += st.Table().SizeBytes()
		rows += st.Rows()
	}
	s.mu.Lock()
	pacer := s.pacer
	s.mu.Unlock()
	if pacer != nil {
		done := pacer.Begin(bytes)
		defer done()
	}

	// Concatenate the run's columns in stripe order. The merged stripe
	// shares the live dictionary set, so text codes carry over unchanged.
	coords := make([][]uint32, len(s.schema.Dimensions))
	finest := make([]int, len(s.schema.Dimensions))
	for d, dim := range s.schema.Dimensions {
		coords[d] = make([]uint32, 0, rows)
		finest[d] = dim.Finest()
	}
	meas := make([][]int32, len(s.schema.Measures))
	for m := range meas {
		meas[m] = make([]int32, 0, rows)
	}
	texts := make([][]uint32, len(s.schema.Texts))
	for t := range texts {
		texts[t] = make([]uint32, 0, rows)
	}
	removeIDs := make([]uint64, len(run))
	for i, st := range run {
		removeIDs[i] = st.ID()
		ft := st.Table()
		for d := range coords {
			coords[d] = ft.DimLevelColumn(d, finest[d]).AppendTo(coords[d])
		}
		for m := range meas {
			meas[m] = append(meas[m], ft.MeasureColumn(m)...)
		}
		for t := range texts {
			texts[t] = ft.TextColumn(t).AppendTo(texts[t])
		}
	}
	merged, err := table.FromColumns(s.schema, coords, meas, texts, s.dicts)
	if err != nil {
		s.compactFailures.Add(1)
		return 0, fmt.Errorf("ingest: compaction merge: %w", err)
	}

	// Publish under the store lock so the aux read and the publish are one
	// atomic step relative to ingest. Compaction does not change the row
	// set, so the latest cube set carries over unchanged.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("ingest: store is closed")
	}
	aux := s.reg.Current().Aux()
	if _, err := s.reg.Publish([]*table.FactTable{merged}, table.StripeBase, removeIDs, aux); err != nil {
		return 0, err
	}
	s.compactions.Add(1)
	s.compactedStripes.Add(int64(len(run)))
	s.compactedRows.Add(int64(rows))
	return len(run), nil
}

// oldestDeltaRun returns the first contiguous run of at least two delta
// stripes in snapshot order, capped at maxRun.
func oldestDeltaRun(snap *table.Snapshot, maxRun int) []*table.Stripe {
	var run []*table.Stripe
	for _, st := range snap.Stripes() {
		if st.Kind() == table.StripeDelta {
			run = append(run, st)
			if len(run) == maxRun {
				return run
			}
			continue
		}
		if len(run) >= 2 {
			return run
		}
		run = run[:0]
	}
	if len(run) >= 2 {
		return run
	}
	return nil
}
