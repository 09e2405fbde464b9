package gpusim

import (
	"fmt"

	"hybridolap/internal/table"
)

// Answer is one member's answer from Execute: the finalised scalar Result,
// or, for a member with GroupBy columns, its finalised Groups (Result then
// zero). A scalar member carries the fold its result was finalised from,
// which the result cache continues over rows ingested later, and a
// cell-granted one also its pre-finalise per-cell partials, which the
// cache stores for interval subsumption.
type Answer struct {
	Result table.ScanResult
	Groups []table.GroupRow // sorted by key; nil unless the member has GroupBy columns
	Cells  table.Groups     // nil unless the plan granted cells
	Fold   *Fold            // nil for a GroupBy member
}

// Fold is a scalar answer as the fold grid holds it before finalising:
// Full, the unit-order fold of the partials of the snapshot's complete
// BlockRows blocks, and Open, the running state of its short last block —
// zero when the row count is a multiple of BlockRows. Since a later epoch
// keeps this epoch's rows as a prefix, its answer is this fold continued
// (Continue): Open chained through the appended rows with
// table.Plan.RangeInto and, at each block edge, merged into Full
// (EndBlock) — exactly the sequence Execute runs at the later epoch, so
// Answer then returns its bits.
type Fold struct {
	Full, Open table.ScanResult
}

// EndBlock folds the open block, which the rows scanned into Open have just
// completed, into Full, and opens the next one empty.
func (f *Fold) EndBlock(op table.AggOp) {
	f.Full, f.Open = table.Merge(op, f.Full, f.Open), table.ScanResult{}
}

// Answer finalises the fold of a snapshot of the given row count, over a
// measure stored at scale: Full merged with the open block, if the grid
// has one.
func (f *Fold) Answer(op table.AggOp, scale, rows int) table.ScanResult {
	if rows%BlockRows == 0 {
		return table.Finalize(op, scale, f.Full)
	}
	return table.Finalize(op, scale, table.Merge(op, f.Full, f.Open))
}

// Continue carries folds from the first `from` rows of snap to all of them:
// folds[i], nil for a cell-granted member, is what members[i] was answered
// from over those rows, and comes back continued over the rows since,
// [from, snap.Rows()) — one bound plan per stripe scanning only them, cut
// at block edges, Open chained through each piece and ended into Full at
// each edge (see Fold). states (one per member, caller-owned, zero but for
// any Groups map the caller sizes) accumulate what each member scans of
// those rows: a cell-granted member's tail cells, a folded member's open
// block. The folds are updated in place; a caller whose folds are shared
// passes copies.
func Continue(snap *table.Snapshot, from int, members []table.Member, folds []*Fold, states []table.State) error {
	if from < 0 || from > snap.Rows() {
		return fmt.Errorf("gpusim: continuing from row %d of a %d-row snapshot", from, snap.Rows())
	}
	if len(folds) != len(members) || len(states) != len(members) {
		return fmt.Errorf("gpusim: %d folds and %d states for %d members", len(folds), len(states), len(members))
	}
	plans := make([]*table.Plan, len(snap.Stripes())) // bound on first use: a tail is a stripe or two
	for mi, f := range folds {
		if f != nil {
			states[mi].Scalar = f.Open
		}
	}
	for lo := from; lo < snap.Rows(); {
		hi := min(lo-lo%BlockRows+BlockRows, snap.Rows())
		err := snap.RowRange(lo, hi, func(stripe int, t *table.FactTable, lo, hi int) error {
			if plans[stripe] == nil {
				var err error
				if plans[stripe], err = table.Bind(t, members); err != nil {
					return err
				}
			}
			return plans[stripe].RangeInto(lo, hi, states)
		})
		if err != nil {
			return err
		}
		for mi, f := range folds {
			if f == nil {
				continue
			}
			if f.Open = states[mi].Scalar; hi%BlockRows == 0 {
				f.EndBlock(members[mi].Op)
				states[mi].Scalar = f.Open
			}
		}
		lo = hi
	}
	return nil
}

// foldOf folds member mi's per-unit partials over the blocks grid in unit
// order: each complete block into Full, the short last one left Open.
func foldOf(op table.AggOp, units []workUnit, states [][]table.State, mi int) *Fold {
	f := new(Fold)
	for i, part := range scalars(states, mi) {
		f.Open = part
		if units[i].hi-units[i].lo == BlockRows {
			f.EndBlock(op)
		}
	}
	return f
}

// Execute answers K compatible members — scalar, cell-granted or keyed by
// GroupBy columns, in any mix — as ONE kernel over the snapshot: each unit
// pass evaluates every member, and per-unit member partials merge in unit
// order (a GroupBy member's one hash table per unit likewise), so sum/avg
// are bit-identical run to run and partition to partition. A solo query
// is K = 1, and since neither the grid, the cursor nor the reduction order
// depends on the other members, each member's answer is bit-identical to
// running that member alone on any partition over the same snapshot rows:
// the property the engine's differential tests and the result cache pin.
func (p *Partition) Execute(snap *table.Snapshot, members []table.Member) ([]Answer, error) {
	units := blocks(snap)
	plans, states, err := p.scan(snap, members, units)
	if err != nil {
		return nil, err
	}
	out := make([]Answer, len(members))
	for mi, m := range members {
		scale := snap.Schema().MeasureScale(m.Measure)
		// Every stripe's plan grants cells identically (same members, same
		// schema); a stripeless snapshot has no plan and nothing to grant.
		if len(m.GroupBy) == 0 && (len(plans) == 0 || !plans[0].Keyed(mi)) {
			f := foldOf(m.Op, units, states, mi)
			out[mi] = Answer{Result: f.Answer(m.Op, scale, snap.Rows()), Fold: f}
			continue
		}
		var acc table.Groups
		for _, g := range groups(states, mi) {
			acc = table.MergeGroups(m.Op, acc, g)
		}
		if len(m.GroupBy) > 0 {
			out[mi] = Answer{Groups: table.FinalizeGroups(m.Op, scale, acc, len(m.GroupBy))}
			continue
		}
		if acc == nil {
			acc = make(table.Groups) // a rowless snapshot grants empty cells
		}
		// The cells' fold is the whole answer's partial: an exact integer,
		// so it continues like the block fold it equals.
		full := table.FoldCells(m.Op, acc)
		out[mi] = Answer{Result: table.Finalize(m.Op, scale, full), Cells: acc, Fold: &Fold{Full: full}}
	}
	return out, nil
}
