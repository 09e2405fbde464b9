package gpusim

import (
	"fmt"

	"hybridolap/internal/table"
)

// FusedAnswer is one member's answer from a fused kernel: the finalised
// result plus, for cell-granted members, the pre-finalise per-cell
// partials the result cache stores for interval subsumption.
type FusedAnswer struct {
	Result table.ScanResult
	Cells  table.Groups // nil unless the plan granted cells
}

// ExecuteFused answers K compatible scan requests as ONE kernel over the
// snapshot: each unit pass evaluates every member, and per-unit member
// partials merge in unit order. Grid, cursor and reduction order are those
// of Execute — which is this with K = 1 — so each member's answer is
// bit-identical to running that member alone on any partition over the
// same snapshot rows: the property the engine's differential tests and the
// result cache pin. wantCells, when non-nil, is each member's
// table.Member.Cells.
func (p *Partition) ExecuteFused(snap *table.Snapshot, reqs []table.ScanRequest, wantCells []bool) ([]FusedAnswer, error) {
	if wantCells != nil && len(wantCells) != len(reqs) {
		return nil, fmt.Errorf("gpusim: got %d cell flags for %d members", len(wantCells), len(reqs))
	}
	members := make([]table.Member, len(reqs))
	for mi, req := range reqs {
		members[mi] = table.Member{ScanRequest: req, Cells: wantCells != nil && wantCells[mi]}
	}
	plans, states, err := p.scan(snap, members, blocks(snap))
	if err != nil {
		return nil, err
	}
	out := make([]FusedAnswer, len(reqs))
	for mi, req := range reqs {
		// Every stripe's plan grants cells identically (same requests, same
		// schema); a stripeless snapshot has no plan and nothing to grant.
		if len(plans) == 0 || !plans[0].Keyed(mi) {
			var acc table.ScanResult
			for _, part := range scalars(states, mi) {
				acc = table.Merge(req.Op, acc, part)
			}
			out[mi].Result = table.Finalize(req.Op, acc)
			continue
		}
		cells := make(table.Groups)
		for _, g := range groups(states, mi) {
			cells = table.MergeGroups(req.Op, cells, g)
		}
		out[mi] = FusedAnswer{Result: table.Finalize(req.Op, table.FoldCells(req.Op, cells)), Cells: cells}
	}
	return out, nil
}
