package table

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The streaming-ingest write path splits the fact table into immutable
// *stripes*: the offline-built base table plus small delta stripes
// materialized from ingested batches. Readers never lock — every query
// pins a Snapshot (an immutable stripe list published under a single
// atomic pointer) at bind time and sees a frozen, consistent row set
// while ingest and compaction continue publishing newer epochs.

// StripeKind distinguishes how a stripe was produced.
type StripeKind uint8

const (
	// StripeBase is an offline-built or compacted stripe.
	StripeBase StripeKind = iota
	// StripeDelta is a small stripe materialized from one ingested batch.
	StripeDelta
)

// String names the kind.
func (k StripeKind) String() string {
	switch k {
	case StripeBase:
		return "base"
	case StripeDelta:
		return "delta"
	default:
		return fmt.Sprintf("StripeKind(%d)", int(k))
	}
}

// Stripe is one immutable horizontal slice of the logical fact table.
type Stripe struct {
	id   uint64
	kind StripeKind
	t    *FactTable
}

// ID returns the registry-assigned stripe identifier (stable across
// epochs; compaction retires IDs and mints a new one for the merge).
func (s *Stripe) ID() uint64 { return s.id }

// Kind reports whether the stripe is base-format or a delta.
func (s *Stripe) Kind() StripeKind { return s.kind }

// Table returns the stripe's columnar data.
func (s *Stripe) Table() *FactTable { return s.t }

// Rows returns the stripe's row count.
func (s *Stripe) Rows() int { return s.t.Rows() }

// Snapshot is the immutable stripe set visible at one epoch. The logical
// row order of the snapshot is the concatenation of its stripes in slice
// order; publishers preserve that order (compaction splices the merged
// stripe into the position of the first stripe it replaces), so scans over
// any epoch visit rows exactly as a from-scratch rebuild would.
type Snapshot struct {
	epoch   uint64
	stripes []*Stripe
	rows    int
	aux     any
}

// Epoch returns the snapshot's epoch number (0 is the base-only epoch).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Stripes returns the visible stripes in logical row order (do not
// modify).
func (s *Snapshot) Stripes() []*Stripe { return s.stripes }

// Rows returns the total visible row count.
func (s *Snapshot) Rows() int { return s.rows }

// RowRange calls fn for every stripe that holds rows of the logical range
// [lo, hi), in row order, with the stripe's index in Stripes(), its table
// and the part of the range inside it in the stripe's own row numbers. It is
// the one place a logical row range becomes stripe segments: an empty
// stripe, an empty range and a stripe the range only touches at an edge are
// never visited. Since every later epoch keeps this epoch's rows as a
// prefix, RowRange(older.Rows(), Rows(), …) visits exactly the rows
// published since the older epoch, however compaction has regrouped them
// into stripes.
func (s *Snapshot) RowRange(lo, hi int, fn func(stripe int, t *FactTable, lo, hi int) error) error {
	base := 0
	for i, st := range s.stripes {
		n := st.t.Rows()
		if from, to := max(lo-base, 0), min(hi-base, n); from < to {
			if err := fn(i, st.t, from, to); err != nil {
				return err
			}
		}
		base += n
		if base >= hi {
			break
		}
	}
	return nil
}

// DeltaStripes counts the visible stripes of kind StripeDelta — the
// compactor's trigger metric.
func (s *Snapshot) DeltaStripes() int {
	n := 0
	for _, st := range s.stripes {
		if st.kind == StripeDelta {
			n++
		}
	}
	return n
}

// Aux returns the epoch-paired auxiliary read state published with the
// snapshot. The ingest store keeps the incrementally maintained cube set
// here so CPU-partition answers are consistent with the pinned stripe set.
func (s *Snapshot) Aux() any { return s.aux }

// SizeBytes sums the columnar footprint of all visible stripes — the
// quantity that must fit the simulated GPU's global memory.
func (s *Snapshot) SizeBytes() int64 {
	var n int64
	for _, st := range s.stripes {
		n += st.t.SizeBytes()
	}
	return n
}

// Registry owns the epoch sequence of a live table. Publishing is
// serialised by an internal mutex; pinning the current snapshot is a
// single atomic load, so the read path stays wait-free under concurrent
// ingest and compaction.
type Registry struct {
	mu     sync.Mutex // serialises Publish
	nextID uint64     // next stripe ID, under mu
	schema Schema
	cur    atomic.Pointer[Snapshot]
}

// NewRegistry starts a registry at epoch 0. base may be nil for a table
// born empty; aux is the epoch-0 auxiliary state (see Snapshot.Aux).
func NewRegistry(schema Schema, base *FactTable, aux any) (*Registry, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	r := &Registry{schema: schema}
	snap := &Snapshot{aux: aux}
	if base != nil {
		if err := sameSchema(&schema, base.Schema()); err != nil {
			return nil, fmt.Errorf("table: base stripe: %w", err)
		}
		snap.stripes = []*Stripe{{id: 0, kind: StripeBase, t: base}}
		snap.rows = base.Rows()
		r.nextID = 1
	}
	r.cur.Store(snap)
	return r, nil
}

// Schema returns the registry's schema (shared by every stripe).
func (r *Registry) Schema() *Schema { return &r.schema }

// Current pins the latest published snapshot. The returned snapshot is
// immutable and remains valid (and consistent) for as long as the caller
// holds it, regardless of later publishes.
func (r *Registry) Current() *Snapshot { return r.cur.Load() }

// Publish atomically installs a new epoch: removeIDs retire existing
// stripes and adds append new ones, in order, each wrapped as a stripe of
// the given kind. When stripes are removed, the added stripes splice into
// the position of the first removed stripe, preserving logical row order
// (the compaction contract: a merged stripe replaces a contiguous run of
// deltas in place). With no removals, adds go to the end (the ingest
// contract: new rows append). Returns the published snapshot.
func (r *Registry) Publish(adds []*FactTable, kind StripeKind, removeIDs []uint64, aux any) (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	old := r.cur.Load()
	remove := make(map[uint64]bool, len(removeIDs))
	for _, id := range removeIDs {
		remove[id] = true
	}

	wrapped := make([]*Stripe, len(adds))
	for i, ft := range adds {
		if ft == nil {
			return nil, fmt.Errorf("table: publish: nil stripe table")
		}
		if err := sameSchema(&r.schema, ft.Schema()); err != nil {
			return nil, fmt.Errorf("table: publish: %w", err)
		}
		wrapped[i] = &Stripe{id: r.nextID, kind: kind, t: ft}
		r.nextID++
	}

	next := &Snapshot{epoch: old.epoch + 1, aux: aux}
	next.stripes = make([]*Stripe, 0, len(old.stripes)+len(wrapped))
	spliced := false
	for _, st := range old.stripes {
		if remove[st.id] {
			if !spliced {
				next.stripes = append(next.stripes, wrapped...)
				spliced = true
			}
			delete(remove, st.id)
			continue
		}
		next.stripes = append(next.stripes, st)
	}
	if len(remove) > 0 {
		return nil, fmt.Errorf("table: publish: %d removed stripe IDs not present", len(remove))
	}
	if !spliced {
		next.stripes = append(next.stripes, wrapped...)
	}
	for _, st := range next.stripes {
		next.rows += st.t.Rows()
	}
	r.cur.Store(next)
	return next, nil
}

// sameSchema checks structural equality of two schemas: same dimensions,
// levels, cardinalities, measures and text columns in the same order.
// Every stripe of a registry must agree so predicates bind identically.
func sameSchema(a, b *Schema) error {
	if len(a.Dimensions) != len(b.Dimensions) {
		return fmt.Errorf("schema mismatch: %d vs %d dimensions", len(a.Dimensions), len(b.Dimensions))
	}
	for d := range a.Dimensions {
		da, db := a.Dimensions[d], b.Dimensions[d]
		if da.Name != db.Name || len(da.Levels) != len(db.Levels) {
			return fmt.Errorf("schema mismatch in dimension %q", da.Name)
		}
		for l := range da.Levels {
			if da.Levels[l] != db.Levels[l] {
				return fmt.Errorf("schema mismatch in dimension %q level %q", da.Name, da.Levels[l].Name)
			}
		}
	}
	if len(a.Measures) != len(b.Measures) {
		return fmt.Errorf("schema mismatch: %d vs %d measures", len(a.Measures), len(b.Measures))
	}
	for m := range a.Measures {
		if a.Measures[m] != b.Measures[m] {
			return fmt.Errorf("schema mismatch in measure %q", a.Measures[m].Name)
		}
	}
	if len(a.Texts) != len(b.Texts) {
		return fmt.Errorf("schema mismatch: %d vs %d text columns", len(a.Texts), len(b.Texts))
	}
	for t := range a.Texts {
		if a.Texts[t] != b.Texts[t] {
			return fmt.Errorf("schema mismatch in text column %q", a.Texts[t].Name)
		}
	}
	return nil
}
