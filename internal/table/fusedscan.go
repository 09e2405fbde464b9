package table

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Fused scans: K compatible scan requests (same table, same predicate
// column set) evaluated in ONE pass over the columns. Scans are memory-
// bandwidth-bound with low IPC, so evaluating every member's predicate set
// per batch costs almost nothing on top of the single bandwidth bill the
// queries would otherwise each pay.
//
// Per 1024-row batch the kernel seeds one shared selection vector with the
// envelope predicate — the [min(From), max(To)] hull of every member's
// accepted interval on the most selective shared column — then, for each
// member, copies the shared vector and refines it with the member's own
// residual predicates before scattering into that member's accumulator.
//
// Bit-identity: the refinement passes compact the selection vector in
// place preserving ascending row order, and a member's residual list
// includes every predicate the envelope did not exactly apply, so the
// final per-member selection is exactly the row set the member's own
// unfused plan selects, in the same order. Scalar accumulation over the
// same rows in the same order is bit-identical to the unfused kernel —
// not merely close.

// fusedColRef canonically identifies one predicate column: a (dim, level)
// pair or a text column index.
type fusedColRef struct {
	text bool
	a, b int // (dim, level), or (textIndex, 0)
}

func colRefOf(p *RangePredicate) fusedColRef {
	if p.Text {
		return fusedColRef{text: true, a: p.TextIndex}
	}
	return fusedColRef{a: p.Dim, b: p.Level}
}

func colRefLess(x, y fusedColRef) bool {
	if x.text != y.text {
		return !x.text // dimension columns order before text columns
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

func (c fusedColRef) String() string {
	if c.text {
		return fmt.Sprintf("t%d", c.a)
	}
	return fmt.Sprintf("d%d.%d", c.a, c.b)
}

// CanonicalPredOrder returns the indices of preds sorted by canonical
// column identity (dimension columns by (dim, level), then text columns by
// index; stable for duplicates). The fused cell accumulators and the
// engine's result cache both key cell coordinates in this order, so they
// agree without sharing state.
func CanonicalPredOrder(preds []RangePredicate) []int {
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return colRefLess(colRefOf(&preds[idx[x]]), colRefOf(&preds[idx[y]]))
	})
	return idx
}

// FusionKey returns the canonical predicate-column-set signature of a
// request: two requests are fusion-compatible exactly when their keys are
// equal (same multiset of filtered columns). Ops, measures and intervals
// may differ per member.
func FusionKey(req ScanRequest) string {
	refs := make([]fusedColRef, len(req.Predicates))
	for i := range req.Predicates {
		refs[i] = colRefOf(&req.Predicates[i])
	}
	sort.Slice(refs, func(x, y int) bool { return colRefLess(refs[x], refs[y]) })
	var b strings.Builder
	for i, r := range refs {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// fusedMember is one member query of a fused pass: its residual predicates
// (selectivity-ordered), its aggregation, and — for a cell-cacheable
// member — the predicate columns it scatters per-cell accumulators into.
type fusedMember struct {
	op    AggOp
	meas  []float64 // nil for pure counts
	preds []boundPred
	never bool
	cells bool       // scatter per-cell instead of scalar
	gcols [][]uint32 // cell coordinate columns, canonical order
}

// FusedScanPlan is K compatible ScanRequests bound to one table as a
// single shared pass. Immutable after binding; safe for concurrent
// RangeInto calls on disjoint state slices.
type FusedScanPlan struct {
	rows      int
	shared    boundPred // envelope predicate (shapeRange), valid when sharedSet
	sharedSet bool      // false: seed densely (no usable shared column)
	never     bool      // every member matches nothing
	members   []fusedMember
}

// HasCells reports whether member i accumulates per-cell aggregates
// (granted only when the member is cell-cacheable; see BindFusedScan).
func (pl *FusedScanPlan) HasCells(i int) bool { return pl.members[i].cells }

// acceptedBounds returns the hull [lo, hi] of every code the bound
// predicate accepts, or ok=false when it accepts nothing.
func acceptedBounds(bp *boundPred) (lo, hi uint32, ok bool) {
	if bp.shape == shapePoints {
		for _, p := range bp.points {
			if !ok || p < lo {
				lo = p
			}
			if !ok || p > hi {
				hi = p
			}
			ok = true
		}
		return lo, hi, ok
	}
	if bp.from <= bp.to {
		lo, hi, ok = bp.from, bp.to, true
	}
	for _, r := range bp.or {
		if r.From > r.To {
			continue
		}
		if !ok || r.From < lo {
			lo = r.From
		}
		if !ok || r.To > hi {
			hi = r.To
		}
		ok = true
	}
	return lo, hi, ok
}

// acceptedWidth counts the codes a bound predicate accepts (Or overlaps
// double-counted — an ordering heuristic, like estimateSelectivity).
func acceptedWidth(bp *boundPred) int64 {
	if bp.shape == shapePoints {
		return int64(len(bp.points))
	}
	var w int64
	if bp.from <= bp.to {
		w += int64(bp.to-bp.from) + 1
	}
	for _, r := range bp.or {
		if r.From <= r.To {
			w += int64(r.To-r.From) + 1
		}
	}
	return w
}

// memberBind is the per-member scratch of fused binding.
type memberBind struct {
	refs  []fusedColRef
	preds []boundPred
}

// bindFusedCore validates every member against the table, checks
// column-set compatibility, picks the shared envelope predicate and
// assembles per-member residual lists.
func bindFusedCore(t *FactTable, reqs []ScanRequest) (*FusedScanPlan, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("table: fused scan needs at least one member")
	}
	pl := &FusedScanPlan{rows: t.rows, members: make([]fusedMember, len(reqs))}
	binds := make([]memberBind, len(reqs))
	key0 := ""
	for mi := range reqs {
		req := &reqs[mi]
		m := &pl.members[mi]
		m.op = req.Op
		if req.Op != AggCount {
			if req.Measure < 0 || req.Measure >= len(t.measures) {
				return nil, fmt.Errorf("table: member %d: measure %d out of range", mi, req.Measure)
			}
			m.meas = t.measures[req.Measure]
		}
		for pi := range req.Predicates {
			p := &req.Predicates[pi]
			if err := validatePred(t, p); err != nil {
				return nil, fmt.Errorf("table: member %d: %w", mi, err)
			}
			bp := bindPred(t, p)
			if bp.from > bp.to && len(bp.or) == 0 {
				m.never = true
			}
			binds[mi].refs = append(binds[mi].refs, colRefOf(p))
			binds[mi].preds = append(binds[mi].preds, bp)
		}
		k := FusionKey(*req)
		if mi == 0 {
			key0 = k
		} else if k != key0 {
			return nil, fmt.Errorf("table: member %d filters columns %q, member 0 filters %q; fused members must share one column set",
				mi, k, key0)
		}
	}

	// Unique sorted column set (from member 0; all members share it).
	colSet := append([]fusedColRef(nil), binds[0].refs...)
	sort.Slice(colSet, func(x, y int) bool { return colRefLess(colSet[x], colSet[y]) })
	uniq := colSet[:0]
	for i, r := range colSet {
		if i == 0 || r != uniq[len(uniq)-1] {
			uniq = append(uniq, r)
		}
	}
	colSet = uniq

	// Pick the shared column: the one whose envelope (the hull of every
	// non-never member's accepted interval) is estimated most selective.
	// A column is unusable when some non-never member has no accepted
	// codes on it to bound (degenerate Or lists); with no usable column
	// the pass seeds densely and every predicate stays residual.
	anyLive := false
	for mi := range pl.members {
		if !pl.members[mi].never {
			anyLive = true
		}
	}
	if !anyLive {
		pl.never = true
		return pl, nil
	}
	bestSel := 0.0
	var bestRef fusedColRef
	for _, ref := range colSet {
		var envFrom, envTo uint32
		var perCode float64
		envOK := true
		first := true
		for mi := range pl.members {
			if pl.members[mi].never {
				continue
			}
			b := &binds[mi]
			found := false
			for pi, r := range b.refs {
				if r != ref {
					continue
				}
				lo, hi, ok := acceptedBounds(&b.preds[pi])
				if !ok {
					envOK = false
					break
				}
				if first || lo < envFrom {
					envFrom = lo
				}
				if first || hi > envTo {
					envTo = hi
				}
				if w := acceptedWidth(&b.preds[pi]); w > 0 && perCode == 0 {
					perCode = b.preds[pi].sel / float64(w)
				}
				first = false
				found = true
				break // one predicate per member bounds the envelope
			}
			if !envOK || !found {
				envOK = false
				break
			}
		}
		if !envOK || first {
			continue
		}
		envSel := float64(int64(envTo-envFrom)+1) * perCode
		if !pl.sharedSet || envSel < bestSel {
			pl.sharedSet = true
			bestSel = envSel
			bestRef = ref
			pl.shared = boundPred{from: envFrom, to: envTo, shape: shapeRange, sel: envSel}
		}
	}
	if pl.sharedSet {
		// Resolve the column slice from any live member's bound predicate.
		for mi := range pl.members {
			if pl.members[mi].never {
				continue
			}
			for pi, r := range binds[mi].refs {
				if r == bestRef {
					pl.shared.col = binds[mi].preds[pi].col
					break
				}
			}
			break
		}
	}

	// Residuals: every member predicate except one that the envelope
	// already applies exactly (a plain range equal to the envelope on the
	// shared column). Selectivity-ordered, like BindScan.
	for mi := range pl.members {
		m := &pl.members[mi]
		b := &binds[mi]
		dropped := false
		for pi := range b.preds {
			bp := &b.preds[pi]
			if pl.sharedSet && !dropped && b.refs[pi] == bestRef &&
				bp.shape == shapeRange && bp.from == pl.shared.from && bp.to == pl.shared.to {
				dropped = true
				continue
			}
			m.preds = append(m.preds, *bp)
		}
		sort.SliceStable(m.preds, func(i, j int) bool { return m.preds[i].sel < m.preds[j].sel })
	}
	return pl, nil
}

// BindFusedScan binds K compatible requests (identical predicate column
// multisets; ops, measures and intervals free per member) into one fused
// plan. wantCells, when non-nil, asks that member i additionally
// accumulate per-cell aggregates keyed by its predicate columns' codes —
// the raw material for interval-subsumption result caching. The request is
// granted only when it is sound to serve sub-ranges from the cells: the
// op's fold must be order-insensitive (count) or selection-exact
// (min/max) — never sum/avg, whose float accumulation is rounding-order-
// sensitive — and every predicate must be a plain range on a distinct
// low-cardinality dimension column. Ineligible members silently stay
// scalar; check HasCells.
func BindFusedScan(t *FactTable, reqs []ScanRequest, wantCells []bool) (*FusedScanPlan, error) {
	if wantCells != nil && len(wantCells) != len(reqs) {
		return nil, fmt.Errorf("table: got %d cell flags for %d members", len(wantCells), len(reqs))
	}
	pl, err := bindFusedCore(t, reqs)
	if err != nil {
		return nil, err
	}
	for mi := range reqs {
		if wantCells == nil || !wantCells[mi] {
			continue
		}
		pl.grantCells(t, mi, &reqs[mi])
	}
	return pl, nil
}

// grantCells enables per-cell accumulation for member mi when eligible.
func (pl *FusedScanPlan) grantCells(t *FactTable, mi int, req *ScanRequest) {
	m := &pl.members[mi]
	switch m.op {
	case AggCount, AggMin, AggMax:
	default:
		return // sum/avg folds are rounding-order-sensitive
	}
	n := len(req.Predicates)
	if n == 0 || n > MaxGroupCols {
		return
	}
	order := CanonicalPredOrder(req.Predicates)
	gcols := make([][]uint32, 0, n)
	var prev fusedColRef
	for i, pi := range order {
		p := &req.Predicates[pi]
		if p.Text || len(p.Or) > 0 {
			return
		}
		ref := colRefOf(p)
		if i > 0 && ref == prev {
			return // duplicate column: cell coordinates would be ambiguous
		}
		prev = ref
		if t.schema.LevelCardinality(p.Dim, p.Level) > 0x10000 {
			return
		}
		gcols = append(gcols, t.dimLevels[p.Dim][p.Level])
	}
	m.cells = true
	m.gcols = gcols
}

// FusedState is one member's accumulation state of a fused pass: a scalar
// partial (pre-Finalize semantics, like ScanPlan.Range) or, for cell
// members, per-cell partials keyed by the packed cell coordinates.
type FusedState struct {
	Scalar ScanResult
	Cells  Groups // nil for scalar members
}

// fusedScratch holds the two selection vectors of a fused pass: the
// shared envelope selection and the per-member refinement copy.
type fusedScratch struct {
	shared []int32
	member []int32
}

var fusedScratchPool = sync.Pool{
	New: func() any {
		return &fusedScratch{
			shared: make([]int32, maxBatchSize),
			member: make([]int32, maxBatchSize),
		}
	},
}

// fillDense seeds a dense selection of the first n in-batch offsets.
//
//olaplint:noalloc
func fillDense(sel []int32, n int) int {
	for i := 0; i < n; i++ {
		sel[i] = int32(i)
	}
	return n
}

// refineShared copies the shared selection and refines it with the
// member's residual predicates, preserving ascending row order.
//
//olaplint:noalloc
func (m *fusedMember) refineShared(base, k int, shared, msel []int32) int {
	copy(msel[:k], shared[:k])
	kk := k
	for pi := 0; pi < len(m.preds) && kk > 0; pi++ {
		kk = m.preds[pi].refine(base, msel[:kk])
	}
	return kk
}

// accumulate folds the surviving rows into the member's scalar partial —
// the same kernels, visit order and first-row semantics as the unfused
// rangeBatch, so the partial is bit-identical to it.
//
//olaplint:noalloc
func (m *fusedMember) accumulate(st *ScanResult, base int, sel []int32) {
	first := st.Rows == 0
	st.Rows += int64(len(sel))
	switch m.op {
	case AggSum, AggAvg:
		st.Value = sumSel(st.Value, m.meas, base, sel)
	case AggMin:
		st.Value = minSel(st.Value, first, m.meas, base, sel)
	case AggMax:
		st.Value = maxSel(st.Value, first, m.meas, base, sel)
	}
}

// cellKey packs the member's cell coordinates of row r.
//
//olaplint:noalloc
func (m *fusedMember) cellKey(r int) GroupKey {
	var k GroupKey
	for _, gc := range m.gcols {
		k = k<<16 | GroupKey(gc[r]&0xFFFF)
	}
	return k
}

// accumulateGroups folds the surviving rows into per-cell accumulators
// keyed by the member's coordinate columns — one loop per op per batch,
// like GroupScanPlan.RangeInto.
func (m *fusedMember) accumulateGroups(dst Groups, base int, sel []int32) {
	switch m.op {
	case AggSum, AggAvg:
		for _, i := range sel {
			r := base + int(i)
			key := m.cellKey(r)
			acc := dst[key]
			acc.Rows++
			acc.Value += m.meas[r]
			dst[key] = acc
		}
	case AggCount:
		for _, i := range sel {
			key := m.cellKey(base + int(i))
			acc := dst[key]
			acc.Rows++
			dst[key] = acc
		}
	case AggMin:
		for _, i := range sel {
			r := base + int(i)
			key := m.cellKey(r)
			acc := dst[key]
			if acc.Rows == 0 || m.meas[r] < acc.Value {
				acc.Value = m.meas[r]
			}
			acc.Rows++
			dst[key] = acc
		}
	case AggMax:
		for _, i := range sel {
			r := base + int(i)
			key := m.cellKey(r)
			acc := dst[key]
			if acc.Rows == 0 || m.meas[r] > acc.Value {
				acc.Value = m.meas[r]
			}
			acc.Rows++
			dst[key] = acc
		}
	}
}

// RangeInto runs the fused kernel over rows [lo, hi), accumulating into
// states (one per member, caller-owned). Chaining consecutive ranges
// through the same states accumulates continuously, like RangeFrom: each
// member's scalar partial stays bit-identical to its own unfused plan
// scanning the same ranges.
func (pl *FusedScanPlan) RangeInto(lo, hi int, states []FusedState) error {
	if lo < 0 || hi > pl.rows || lo > hi {
		return fmt.Errorf("table: scan range [%d,%d) outside [0,%d)", lo, hi, pl.rows)
	}
	if len(states) != len(pl.members) {
		return fmt.Errorf("table: got %d states for %d members", len(states), len(pl.members))
	}
	if pl.never {
		return nil
	}
	sc := fusedScratchPool.Get().(*fusedScratch)
	shared, msel := sc.shared, sc.member
	for base := lo; base < hi; base += BatchSize {
		n := hi - base
		if n > BatchSize {
			n = BatchSize
		}
		var k int
		if pl.sharedSet {
			k = seedRange(pl.shared.col, base, n, pl.shared.from, pl.shared.to, shared)
		} else {
			k = fillDense(shared, n)
		}
		if k == 0 {
			continue
		}
		for mi := range pl.members {
			m := &pl.members[mi]
			if m.never {
				continue
			}
			kk := m.refineShared(base, k, shared, msel)
			if kk == 0 {
				continue
			}
			st := &states[mi]
			if m.cells {
				if st.Cells == nil {
					st.Cells = make(Groups)
				}
				m.accumulateGroups(st.Cells, base, msel[:kk])
			} else {
				m.accumulate(&st.Scalar, base, msel[:kk])
			}
		}
	}
	fusedScratchPool.Put(sc)
	return nil
}

// FoldCells folds every per-cell partial into one scalar partial, in
// sorted key order (deterministic). For count the fold is exact integer
// addition and for min/max an exact selection, so the folded partial is
// bit-identical to the member's scalar accumulation over the same rows;
// sum/avg members never carry cells (see BindFusedScan).
func FoldCells(op AggOp, cells Groups) ScanResult {
	keys := make([]GroupKey, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var acc ScanResult
	for _, k := range keys {
		acc = Merge(op, acc, cells[k])
	}
	return acc
}
