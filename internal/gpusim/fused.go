package gpusim

import "hybridolap/internal/table"

// FusedAnswer is one member's answer from a fused kernel: the finalised
// result plus, for cell-granted members, the pre-finalise per-cell
// partials the result cache stores for interval subsumption.
type FusedAnswer struct {
	Result table.ScanResult
	Cells  table.Groups // nil unless the plan granted cells
}

// ExecuteFused answers K compatible scan requests as ONE kernel over the
// snapshot: each unit pass evaluates every member, and per-unit member
// partials merge in unit order. Cut, cursor and reduction order are those
// of Execute, so each member's answer is bit-identical to running that
// member alone on the same partition and snapshot — the property the
// engine's differential tests and the result cache pin. wantCells follows
// BindFusedScan's contract.
func (p *Partition) ExecuteFused(snap *table.Snapshot, reqs []table.ScanRequest, wantCells []bool) ([]FusedAnswer, error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return nil, err
	}
	plans, err := bindStripes(snap, func(ft *table.FactTable) (*table.FusedScanPlan, error) {
		return table.BindFusedScan(ft, reqs, wantCells)
	})
	if err != nil {
		return nil, err
	}
	units := p.cut(snap)
	partials := make([][]table.FusedState, len(units))
	err = p.drain(units, func(_, i int, u workUnit) error {
		// Each SM allocates the states of the units it scans: the kernel
		// writes them once per batch, so neighbouring units' states stay
		// off each other's cache lines.
		partials[i] = make([]table.FusedState, len(reqs))
		return plans[u.stripe].RangeInto(u.lo, u.hi, partials[i])
	})
	if err != nil {
		return nil, err
	}
	p.done()

	// cut yields no empty units, so drain ran — and set a partial for —
	// every one.
	out := make([]FusedAnswer, len(reqs))
	for mi, req := range reqs {
		// Every stripe's plan grants cells identically (same requests, same
		// schema); a stripeless snapshot has no plan and nothing to grant.
		if len(plans) == 0 || !plans[0].HasCells(mi) {
			var acc table.ScanResult
			for _, part := range partials {
				acc = table.Merge(req.Op, acc, part[mi].Scalar)
			}
			out[mi].Result = table.Finalize(req.Op, acc)
			continue
		}
		cells := make(table.Groups)
		for _, part := range partials {
			cells = table.MergeGroups(req.Op, cells, part[mi].Cells)
		}
		out[mi] = FusedAnswer{Result: table.Finalize(req.Op, table.FoldCells(req.Op, cells)), Cells: cells}
	}
	return out, nil
}
