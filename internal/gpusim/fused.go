package gpusim

import "hybridolap/internal/table"

// Answer is one member's answer from Execute: the finalised scalar Result,
// or, for a member with GroupBy columns, its finalised Groups (Result then
// zero). Partial is the member's unfinalised state, what the answer was
// finalised from: the scalar partial, and for a keyed member its group map
// — a GroupBy member's groups, a cell-granted member's per-cell partials
// beside their fold. Partials are exact integer units, so a partial merged
// with the partial of more rows (table.Merge) is the partial of them all:
// the result cache carries an answer across epochs that way, and a cluster
// coordinator merges its shards' partials.
type Answer struct {
	Result  table.ScanResult
	Groups  []table.GroupRow // sorted by key; nil unless the member has GroupBy columns
	Partial table.State
}

// Execute answers K compatible members — scalar, cell-granted or keyed by
// GroupBy columns, in any mix — as ONE kernel over the snapshot: each unit
// pass evaluates every member, and each member's per-unit partials merge
// into one. Partials are exact integer units, so neither the merge order,
// the other members, the partition nor how its SMs interleave moves a bit:
// each member's answer is bit-identical to running that member alone on
// any partition over the same snapshot rows, the property the engine's
// differential tests and the result cache pin. A solo query is K = 1.
func (p *Partition) Execute(snap *table.Snapshot, members []table.Member) ([]Answer, error) {
	plans, states, err := p.scan(snap, members)
	if err != nil {
		return nil, err
	}
	out := make([]Answer, len(members))
	for mi, m := range members {
		scale := snap.Schema().MeasureScale(m.Measure)
		// Every stripe's plan grants cells identically (same members, same
		// schema); a stripeless snapshot has no plan and nothing to grant.
		keyed := len(m.GroupBy) > 0 || len(plans) > 0 && plans[0].Keyed(mi)
		var part table.State
		for _, st := range states {
			if keyed {
				part.Groups = table.MergeGroups(m.Op, part.Groups, st[mi].Groups)
			} else {
				part.Scalar = table.Merge(m.Op, part.Scalar, st[mi].Scalar)
			}
		}
		if len(m.GroupBy) > 0 {
			out[mi] = Answer{Groups: table.FinalizeGroups(m.Op, scale, part.Groups, len(m.GroupBy)), Partial: part}
			continue
		}
		if keyed {
			if part.Groups == nil {
				part.Groups = make(table.Groups) // a rowless snapshot grants empty cells
			}
			part.Scalar = table.FoldCells(m.Op, part.Groups)
		}
		out[mi] = Answer{Result: table.Finalize(m.Op, scale, part.Scalar), Partial: part}
	}
	return out, nil
}
