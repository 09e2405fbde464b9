package gpusim

import "hybridolap/internal/table"

// ChunkRange is one chunk of a shard's local row space on the cluster's
// fixed global merge grid. Chunks play the role of a fixed CUDA grid of
// thread blocks: their boundaries are a pure function of the TOTAL table
// size and the configured chunk count, never of the shard count or the
// partition layout, which is what lets the coordinator reduce partials in
// a shard-count-independent order.
type ChunkRange struct {
	Lo, Hi int // local row range [Lo, Hi) within the device's resident table
}

// gridUnits is the caller's grid as work units: one per chunk, in chunk
// order. The resident snapshot has one stripe, so a chunk's local rows are
// its logical rows.
func gridUnits(chunks []ChunkRange) []workUnit {
	units := make([]workUnit, len(chunks))
	for i, c := range chunks {
		units[i] = workUnit{lo: c.Lo, hi: c.Hi}
	}
	return units
}

// ExecuteChunks scans the device's resident table over explicit chunk
// ranges and returns one UNFINALIZED partial per chunk, in chunk order
// (see scan: a chunk's bits depend only on the rows inside it — not
// on how many chunks the call received or how the device is partitioned).
// The reduction moves up to the caller: the cluster coordinator folds
// every shard's chunk partials in global chunk order, and that flat,
// fixed-grid reduction is what keeps distributed answers bit-identical
// across shard counts (a hierarchical per-shard pre-merge would change the
// floating-point fold tree as N changes).
func (p *Partition) ExecuteChunks(req table.ScanRequest, chunks []ChunkRange) ([]table.ScanResult, error) {
	_, states, err := p.scan(p.dev.resident, []table.Member{{ScanRequest: req}}, gridUnits(chunks))
	if err != nil {
		return nil, err
	}
	return scalars(states, 0), nil
}

// ExecuteGroupChunks is ExecuteChunks for grouped scans: one fresh
// UNFINALIZED group map per chunk, in chunk order (nil for a chunk in
// which no row matched). As in ExecuteGroup, a unit's map is built by one
// row-order pass over exactly its rows, so the per-chunk maps (and the
// coordinator's chunk-order MergeGroups fold over them) are deterministic
// for any shard count.
func (p *Partition) ExecuteGroupChunks(req table.GroupScanRequest, chunks []ChunkRange) ([]table.Groups, error) {
	m, err := table.GroupMember(req)
	if err != nil {
		return nil, err
	}
	_, states, err := p.scan(p.dev.resident, []table.Member{m}, gridUnits(chunks))
	if err != nil {
		return nil, err
	}
	return groups(states, 0), nil
}
