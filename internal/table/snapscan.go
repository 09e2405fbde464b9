package table

// Snapshot scans: the sequential reference kernels of the live table.
// Each stripe is scanned with the vectorized plan, threading one running
// State across stripes in logical row order, so the result is
// bit-identical to scanning a single table rebuilt from the snapshot's
// rows, never merely tolerance-close. The differential epoch tests pin the
// engine to exactly this property.

// scanSnapshot chains one member's state through every stripe in order.
func scanSnapshot(snap *Snapshot, m Member) (State, error) {
	st := make([]State, 1)
	for _, s := range snap.Stripes() {
		pl, err := Bind(s.Table(), []Member{m})
		if err != nil {
			return State{}, err
		}
		if err := pl.RangeInto(0, s.Rows(), st); err != nil {
			return State{}, err
		}
	}
	return st[0], nil
}

// ScanSnapshot runs req over every stripe of the snapshot in order and
// finalises, equivalent to Scan over a from-scratch rebuild of the
// visible rows.
func ScanSnapshot(snap *Snapshot, req ScanRequest) (ScanResult, error) {
	st, err := scanSnapshot(snap, Member{ScanRequest: req})
	return Finalize(req.Op, st.Scalar), err
}

// GroupScanSnapshot runs the grouped req over every stripe of the
// snapshot in order, accumulating into one destination map, and
// finalises — equivalent to GroupScan over a from-scratch rebuild.
func GroupScanSnapshot(snap *Snapshot, req GroupScanRequest) ([]GroupRow, error) {
	m, err := GroupMember(req)
	if err != nil {
		return nil, err
	}
	st, err := scanSnapshot(snap, m)
	if err != nil {
		return nil, err
	}
	return FinalizeGroups(req.Op, st.Groups, len(req.GroupBy)), nil
}
