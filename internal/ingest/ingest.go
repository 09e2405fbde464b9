package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hybridolap/internal/cube"
	"hybridolap/internal/dict"
	"hybridolap/internal/fault"
	"hybridolap/internal/table"
)

// ErrDegraded is returned by Ingest once the store has flipped read-only
// after a durability failure: accepting more batches without a working
// WAL would silently lose them on crash. Queries keep working; recovery
// is Close + Open (which replays every durable batch).
var ErrDegraded = errors.New("ingest: store is degraded (read-only after a durability failure)")

// DurabilityError wraps the WAL failure that flipped the store
// read-only. The batch that hit it was NOT accepted: it is neither
// logged nor published, so the caller must not count it as ingested.
type DurabilityError struct {
	// Op is the WAL operation that failed ("append" or "sync").
	Op  string
	Err error
}

// Error renders the failure.
func (e *DurabilityError) Error() string {
	return fmt.Sprintf("ingest: WAL %s failed, store now degraded (read-only): %v", e.Op, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *DurabilityError) Unwrap() error { return e.Err }

// Pacer throttles background compaction through the scheduler: Begin
// books the estimated cost of merging the given byte volume on the CPU
// processing partition queue (and may block until the queue has room);
// the returned done reports completion so actual-vs-estimated feedback
// can correct the queue clock. A nil Pacer disables pacing.
type Pacer interface {
	Begin(bytes int64) (done func())
}

// Config parameterises Open.
type Config struct {
	// Base is the offline-built fact table forming the epoch-0 base
	// stripe. May be nil for a table born empty, in which case Schema is
	// required.
	Base   *table.FactTable
	Schema *table.Schema

	// Cubes is the epoch-0 pre-calculated cube set; when set, every
	// published epoch carries an incrementally maintained copy as its
	// snapshot aux payload. Nil disables cube maintenance.
	Cubes *cube.Set
	// CubeCfg controls shadow-cube builds (chunk side, workers).
	CubeCfg cube.Config

	// WALPath is the append-log file; empty runs without durability
	// (batches live only in published stripes).
	WALPath string

	// Pacer throttles compaction (see Pacer). Optional.
	Pacer Pacer

	// Faults injects the chaos plan consulted at the write path's fault
	// points (fault.WALAppend, fault.WALSync, fault.Compaction); nil runs
	// fault-free.
	Faults *fault.Plan
}

// Stats is a point-in-time snapshot of ingest and compaction counters.
type Stats struct {
	Epoch            uint64 `json:"epoch"`
	Stripes          int    `json:"stripes"`
	DeltaStripes     int    `json:"delta_stripes"`
	Rows             int    `json:"rows"`
	Batches          int64  `json:"batches"`
	IngestedRows     int64  `json:"ingested_rows"`
	ReplayedBatches  int64  `json:"replayed_batches"`
	Compactions      int64  `json:"compactions"`
	CompactedStripes int64  `json:"compacted_stripes"`
	CompactedRows    int64  `json:"compacted_rows"`
	WALRecords       int64  `json:"wal_records"`
	WALBytes         int64  `json:"wal_bytes"`
	// Degraded reports the store is read-only after a durability failure.
	Degraded bool `json:"degraded"`
	// CompactionFailures counts compaction cycles that errored (the
	// compactor leaves the deltas in place and retries).
	CompactionFailures int64 `json:"compaction_failures"`
}

// Store is the live table: an epoch registry of immutable stripes, a set
// of append-only dictionaries shared by every stripe, an optional
// write-ahead log, and an optional background compactor. Readers pin
// snapshots via Current (or the registry) and never block; writers are
// serialised internally.
type Store struct {
	schema table.Schema
	reg    *table.Registry
	dicts  *dict.Set
	log    *Log

	cubeCfg cube.Config
	pacer   Pacer
	faults  *fault.Plan

	// degraded flips once on the first durability failure and stays set
	// until the store is reopened: ingest refuses further batches while
	// reads continue unaffected.
	degraded atomic.Bool

	// mu serialises the write path: WAL append, text encoding, stripe
	// materialization and epoch publish happen in one critical section so
	// WAL replay order equals publish order (deterministic recovery).
	mu     sync.Mutex
	closed bool

	compactor *Compactor

	batches          atomic.Int64
	ingestedRows     atomic.Int64
	replayedBatches  atomic.Int64
	compactions      atomic.Int64
	compactedStripes atomic.Int64
	compactedRows    atomic.Int64
	compactFailures  atomic.Int64
}

// Open builds a live store: wraps the base table's dictionaries in
// append-capable ones, starts the registry at epoch 0, and — when a WAL
// path is configured — replays every intact logged batch through the
// normal ingest path, so a recovered store sees exactly the epochs a
// clean shutdown would have kept (modulo compaction, which is not logged
// and simply re-runs).
func Open(cfg Config) (*Store, error) {
	var schema table.Schema
	switch {
	case cfg.Base != nil:
		schema = *cfg.Base.Schema()
	case cfg.Schema != nil:
		schema = *cfg.Schema
	default:
		return nil, errors.New("ingest: need Base or Schema")
	}

	var frozen *dict.Set
	if cfg.Base != nil {
		frozen = cfg.Base.Dicts()
	}
	live, err := dict.AppendSet(frozen)
	if err != nil {
		return nil, err
	}
	// Columns born without a base dictionary (no base table, or a text
	// column the base never saw) still need somewhere to grow.
	for _, ts := range schema.Texts {
		if _, ok := live.Get(ts.Name); !ok {
			a, err := dict.NewAppend(nil)
			if err != nil {
				return nil, err
			}
			live.Put(ts.Name, a)
		}
	}

	base := cfg.Base
	if base != nil {
		// The base stripe adopts the live dictionary set so every stripe
		// of the registry binds text predicates against the same (growing)
		// dictionaries. Base rows only carry base codes, which are stable.
		base = base.WithDicts(live)
	}
	reg, err := table.NewRegistry(schema, base, cfg.Cubes)
	if err != nil {
		return nil, err
	}
	s := &Store{
		schema:  schema,
		reg:     reg,
		dicts:   live,
		cubeCfg: cfg.CubeCfg,
		pacer:   cfg.Pacer,
		faults:  cfg.Faults,
	}
	if cfg.WALPath != "" {
		l, batches, err := OpenLog(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		s.log = l
		for _, b := range batches {
			if _, err := s.ingest(b, false); err != nil {
				_ = l.Close()
				return nil, fmt.Errorf("ingest: replaying WAL: %w", err)
			}
			s.replayedBatches.Add(1)
		}
	}
	return s, nil
}

// Schema returns the store's schema.
func (s *Store) Schema() *table.Schema { return &s.schema }

// Registry returns the epoch registry (readers pin snapshots from it).
func (s *Store) Registry() *table.Registry { return s.reg }

// Current pins the latest published snapshot.
func (s *Store) Current() *table.Snapshot { return s.reg.Current() }

// Dicts returns the live append-only dictionary set shared by every
// stripe.
func (s *Store) Dicts() *dict.Set { return s.dicts }

// validate checks a batch against the schema before anything is logged:
// shape, coordinate ranges, and that every measure value is a whole number
// of its column's units (table.ErrMeasureValue otherwise).
func (s *Store) validate(b *Batch) error {
	for i := range b.Rows {
		r := &b.Rows[i]
		if len(r.Coords) != len(s.schema.Dimensions) {
			return fmt.Errorf("ingest: row %d has %d coords, schema has %d dimensions",
				i, len(r.Coords), len(s.schema.Dimensions))
		}
		for d, c := range r.Coords {
			card := s.schema.Dimensions[d].Levels[s.schema.Dimensions[d].Finest()].Cardinality
			if c < 0 || c >= card {
				return fmt.Errorf("ingest: row %d coordinate %d outside [0,%d) in dimension %q",
					i, c, card, s.schema.Dimensions[d].Name)
			}
		}
		if len(r.Measures) != len(s.schema.Measures) {
			return fmt.Errorf("ingest: row %d has %d measures, schema has %d",
				i, len(r.Measures), len(s.schema.Measures))
		}
		for m, v := range r.Measures {
			if _, err := table.Units(v, s.schema.Measures[m].Scale); err != nil {
				return fmt.Errorf("ingest: row %d measure %q: %w", i, s.schema.Measures[m].Name, err)
			}
		}
		if len(r.Texts) != len(s.schema.Texts) {
			return fmt.Errorf("ingest: row %d has %d text values, schema has %d",
				i, len(r.Texts), len(s.schema.Texts))
		}
	}
	return nil
}

// Ingest validates the batch, appends it to the WAL, materializes it as
// one delta stripe (encoding text through the append dictionaries), folds
// it into the cube set copy-on-write, and publishes the next epoch. The
// returned snapshot is the first epoch in which the batch is visible.
func (s *Store) Ingest(b *Batch) (*table.Snapshot, error) {
	return s.ingest(b, true)
}

// olaplint:epochexempt: writer, not a query — the empty-batch early
// return hands back the head as-is, and the later aux read happens
// under s.mu, where this writer is the only publisher; both reads
// deliberately observe the latest epoch.
func (s *Store) ingest(b *Batch, logIt bool) (*table.Snapshot, error) {
	if err := s.validate(b); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("ingest: store is closed")
	}
	if s.degraded.Load() {
		return nil, ErrDegraded
	}
	if len(b.Rows) == 0 {
		return s.reg.Current(), nil
	}
	if logIt && s.log != nil {
		// The WALAppend fault point sits exactly where a disk-full or I/O
		// error would: the batch is not yet logged, not yet published, so
		// rejecting it loses nothing the caller was told is durable.
		err := s.faults.Check(fault.WALAppend, -1)
		if err == nil {
			err = s.log.Append(b)
		}
		if err != nil {
			s.degraded.Store(true)
			return nil, &DurabilityError{Op: "append", Err: err}
		}
	}

	// Columnar encode: coordinates copy straight over, measures become
	// their units (validate checked they convert); text goes through
	// GetOrAdd so new strings take stable arrival-order codes.
	n := len(b.Rows)
	coords := make([][]uint32, len(s.schema.Dimensions))
	for d := range coords {
		coords[d] = make([]uint32, n)
	}
	meas := make([][]int32, len(s.schema.Measures))
	for m := range meas {
		meas[m] = make([]int32, n)
	}
	texts := make([][]uint32, len(s.schema.Texts))
	for t := range texts {
		texts[t] = make([]uint32, n)
	}
	for i := range b.Rows {
		r := &b.Rows[i]
		for d, c := range r.Coords {
			coords[d][i] = uint32(c)
		}
		for m, v := range r.Measures {
			meas[m][i], _ = table.Units(v, s.schema.Measures[m].Scale)
		}
		for t, str := range r.Texts {
			id, _, err := s.dicts.GetOrAdd(s.schema.Texts[t].Name, str)
			if err != nil {
				return nil, err
			}
			texts[t][i] = id
		}
	}
	delta, err := table.FromColumns(s.schema, coords, meas, texts, s.dicts)
	if err != nil {
		return nil, err
	}

	aux := s.reg.Current().Aux()
	if prev, ok := aux.(*cube.Set); ok && prev != nil {
		shadows, err := prev.ShadowFromTable(delta, s.cubeCfg)
		if err != nil {
			return nil, err
		}
		merged, err := prev.MergeCOW(shadows)
		if err != nil {
			return nil, err
		}
		aux = merged
	}
	snap, err := s.reg.Publish([]*table.FactTable{delta}, table.StripeDelta, nil, aux)
	if err != nil {
		return nil, err
	}
	s.batches.Add(1)
	s.ingestedRows.Add(int64(n))
	return snap, nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	snap := s.reg.Current()
	st := Stats{
		Epoch:            snap.Epoch(),
		Stripes:          len(snap.Stripes()),
		DeltaStripes:     snap.DeltaStripes(),
		Rows:             snap.Rows(),
		Batches:          s.batches.Load(),
		IngestedRows:     s.ingestedRows.Load(),
		ReplayedBatches:  s.replayedBatches.Load(),
		Compactions:      s.compactions.Load(),
		CompactedStripes: s.compactedStripes.Load(),
		CompactedRows:    s.compactedRows.Load(),
	}
	if s.log != nil {
		st.WALRecords = s.log.Records()
		st.WALBytes = s.log.SizeBytes()
	}
	st.Degraded = s.degraded.Load()
	st.CompactionFailures = s.compactFailures.Load()
	return st
}

// Degraded reports whether a durability failure has flipped the store
// read-only. Queries stay unaffected; Ingest returns ErrDegraded until
// the store is reopened.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// SetPacer installs (or replaces) the compaction pacer. Call before
// StartCompactor; typically used to wire a scheduler-aware pacer built
// from a system that itself needs the opened store.
func (s *Store) SetPacer(p Pacer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pacer = p
}

// Sync flushes the WAL to stable storage (no-op without a WAL). A sync
// failure — injected or real — degrades the store: batches the caller
// asked to make durable may not be, so accepting more would compound the
// lie.
func (s *Store) Sync() error {
	if s.log == nil {
		return nil
	}
	err := s.faults.Check(fault.WALSync, -1)
	if err == nil {
		err = s.log.Sync()
	}
	if err != nil {
		s.degraded.Store(true)
		return &DurabilityError{Op: "sync", Err: err}
	}
	return nil
}

// Close stops the compactor (if running), waits for it, drains any
// in-flight ingest (writers hold the store lock), flushes and closes the
// WAL. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	c := s.compactor
	s.compactor = nil
	s.mu.Unlock()
	if c != nil {
		c.stopAndWait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}
