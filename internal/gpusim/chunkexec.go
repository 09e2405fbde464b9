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
// ranges for one member — scalar, or keyed by its GroupBy columns — and
// returns its UNFINALIZED state per chunk, in chunk order (the zero State
// for an empty chunk; a nil Groups map where no row matched). See scan: a
// chunk's bits depend only on the rows inside it — not on how many chunks
// the call received or how the device is partitioned. The reduction moves
// up to the caller: the cluster coordinator folds every shard's chunk
// states in global chunk order, and that flat, fixed-grid reduction is
// what keeps distributed answers bit-identical across shard counts (a
// hierarchical per-shard pre-merge would change the floating-point fold
// tree as N changes).
func (p *Partition) ExecuteChunks(m table.Member, chunks []ChunkRange) ([]table.State, error) {
	_, states, err := p.scan(p.dev.resident, []table.Member{m}, gridUnits(chunks))
	if err != nil {
		return nil, err
	}
	out := make([]table.State, len(states))
	for i, st := range states {
		if st != nil {
			out[i] = st[0]
		}
	}
	return out, nil
}
