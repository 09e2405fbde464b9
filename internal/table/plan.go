package table

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// A Plan is the package's one bound scan: K compatible requests — its
// members — validated against one table once, every code column resolved
// to a concrete slice, and evaluated in ONE pass over the columns. A
// scalar query is a 1-member plan, a GROUP BY a 1-member plan whose
// member scatters by its GroupBy columns, a fusion window K members;
// nothing else binds or runs a vectorized scan, so the per-stripe kernels
// the GPU simulator launches do no validation, no column lookup and no
// re-ordering work at all. The row-at-a-time ScanRange / GroupScanRange
// stay as the reference kernels the plan is proven against.
//
// Members must filter the same column multiset (FusionKey); ops,
// measures, intervals and key columns are free per member. Scans are
// memory-bandwidth-bound with low IPC, so evaluating every member's
// predicate set per batch costs almost nothing on top of the single
// bandwidth bill the queries would otherwise each pay.
//
// Per 1024-row batch the kernel seeds one shared selection vector with the
// envelope predicate — the [min(From), max(To)] hull of every member's
// accepted interval on the most selective shared column — then each member
// refines it with its own residual predicates (on a copy, except the last
// member, after which nobody reads the shared vector) before accumulating.
//
// Bit-identity: the refinement passes compact the selection vector in
// place preserving ascending row order, and a member's residual list
// includes every predicate the envelope did not exactly apply, so the
// final per-member selection is exactly the row set the reference kernel
// selects for that member alone, in the same order — whatever the other
// members are. Accumulation over the same rows in the same order is
// bit-identical to ScanRange / GroupScanRange, not merely close.
//
// Immutable after binding; safe for concurrent RangeInto calls on
// disjoint state slices (the paper's per-SM stripe kernels all share one
// plan).
type Plan struct {
	rows      int
	shared    boundPred // envelope predicate (shapeRange), valid when sharedSet
	sharedSet bool      // false: no member filters any column, the pass is unseeded
	fill      bool      // unseeded pass in which some member reads a dense selection
	last      int       // last live member, -1 when every member matches nothing
	members   []member
}

// Member is one query of a plan: a scan request and how it accumulates.
type Member struct {
	ScanRequest
	// GroupBy, when non-empty, makes the member accumulate per distinct
	// combination of these columns' codes instead of into one scalar.
	GroupBy []GroupCol
	// Cells asks that a member without GroupBy accumulate per-cell
	// aggregates keyed by its predicate columns' codes, in canonical
	// column order — the raw material for interval-subsumption result
	// caching. Granted only for a CellShape request whose columns fit the
	// key budget; an ineligible member silently stays scalar (check
	// Keyed).
	Cells bool
}

// ColumnsAccessed extends eq. (12): grouping columns are read from global
// memory too.
func (m Member) ColumnsAccessed() int {
	return m.ScanRequest.ColumnsAccessed() + len(m.GroupBy)
}

// member is one bound member: its residual predicates (selectivity-
// ordered), its aggregation and, for a keyed member, the columns whose
// codes pack into its accumulator keys.
type member struct {
	op    AggOp
	meas  []int32 // nil for pure counts; units of the measure's scale
	preds []boundPred
	never bool       // some predicate can match no row
	dense bool       // unfiltered scalar member of an unseeded pass: aggregates dense runs
	gcols []levelCol // key columns; nil for a scalar member
}

// predShape selects the monomorphic filter kernel for one predicate.
type predShape int

const (
	// shapeRange is a single [From, To] interval.
	shapeRange predShape = iota
	// shapeOr is an interval plus a disjunctive Or-list of intervals.
	shapeOr
	// shapePoints is the translated-text IN-list shape: every accepted
	// interval is a single code, so the kernel compares equality against
	// a short code list instead of walking interval pairs.
	shapePoints
)

// boundPred is one predicate of a plan: column resolved, constants
// mapped to the stored column's codes and narrowed to its width, shape
// chosen, selectivity estimated. [from, to] and every or interval are
// non-empty and hold only codes the column can store (bindPred), so a
// kernel may compare them in the column's own type. A predicate on a
// coarse level filters the dimension's finest column: its intervals are
// the finest codes the level's codes cover.
type boundPred struct {
	ref      colRef
	col      Codes
	from, to uint32
	or       []CodeRange
	points   []uint32 // shapePoints: the accepted codes
	shape    predShape
	sel      float64 // estimated fraction of rows passing, for ordering
}

// Keyed reports whether member i accumulates into State.Groups (it has
// GroupBy columns, or asked for cells and was granted them) rather than
// State.Scalar.
func (pl *Plan) Keyed(i int) bool { return pl.members[i].gcols != nil }

// validatePred bounds-checks the column a predicate addresses.
func validatePred(t *FactTable, p *RangePredicate) error {
	if p.Text {
		if p.TextIndex < 0 || p.TextIndex >= len(t.texts) {
			return fmt.Errorf("table: text column %d out of range", p.TextIndex)
		}
		return nil
	}
	if p.Dim < 0 || p.Dim >= len(t.dims) {
		return fmt.Errorf("table: dimension %d out of range", p.Dim)
	}
	if p.Level < 0 || p.Level >= len(t.schema.Dimensions[p.Dim].Levels) {
		return fmt.Errorf("table: level %d out of range for dimension %d", p.Level, p.Dim)
	}
	return nil
}

// fitsGroupKey reports whether a column of card distinct codes packs into
// one 16-bit component of a GroupKey.
func fitsGroupKey(card int) bool { return card <= 0x10000 }

// validateGroupCol bounds-checks one grouping column and its 16-bit key
// budget.
func validateGroupCol(t *FactTable, g GroupCol) (levelCol, error) {
	if g.Text {
		if g.TextIndex < 0 || g.TextIndex >= len(t.texts) {
			return levelCol{}, fmt.Errorf("table: group text column %d out of range", g.TextIndex)
		}
		if d := t.schema.Texts[g.TextIndex]; d.Name != "" {
			if dd, ok := t.dicts.Get(d.Name); ok && !fitsGroupKey(dd.Len()) {
				return levelCol{}, fmt.Errorf("table: text column %q has %d codes; grouping supports <= 65536", d.Name, dd.Len())
			}
		}
		return viewOf(t.texts[g.TextIndex], 1), nil
	}
	if g.Dim < 0 || g.Dim >= len(t.dims) || g.Level < 0 || g.Level >= len(t.schema.Dimensions[g.Dim].Levels) {
		return levelCol{}, fmt.Errorf("table: group column (%d,%d) out of range", g.Dim, g.Level)
	}
	if card := t.schema.LevelCardinality(g.Dim, g.Level); !fitsGroupKey(card) {
		return levelCol{}, fmt.Errorf("table: group level cardinality %d exceeds 65536", card)
	}
	return t.levelOf(g.Dim, g.Level), nil
}

// predCardinality returns the number of distinct codes the predicate's
// column can carry, or 0 when unknown (missing dictionary).
func predCardinality(t *FactTable, p *RangePredicate) int {
	if !p.Text {
		return t.schema.LevelCardinality(p.Dim, p.Level)
	}
	if t.dicts == nil || p.TextIndex >= len(t.schema.Texts) {
		return 0
	}
	return t.dicts.DictLen(t.schema.Texts[p.TextIndex].Name)
}

// intervalWidth counts the codes of [from, to] that fall inside [0, card).
func intervalWidth(from, to uint32, card int) int64 {
	if to < from {
		return 0
	}
	hi := int64(to)
	if card > 0 && hi > int64(card)-1 {
		hi = int64(card) - 1
	}
	if lo := int64(from); lo <= hi {
		return hi - lo + 1
	}
	return 0
}

// estimateSelectivity estimates the fraction of rows a predicate accepts,
// assuming codes distribute uniformly over the column's cardinality (true
// for the synthetic generator, close enough for ordering real columns).
// Overlapping Or intervals are counted twice — this is an ordering
// heuristic, not an answer. Unknown cardinalities estimate 1 (filter
// last).
func estimateSelectivity(t *FactTable, p *RangePredicate) float64 {
	card := predCardinality(t, p)
	if card <= 0 {
		return 1
	}
	w := intervalWidth(p.From, p.To, card)
	for _, r := range p.Or {
		w += intervalWidth(r.From, r.To, card)
	}
	s := float64(w) / float64(card)
	if s > 1 {
		s = 1
	}
	return s
}

// narrowTo cuts an interval to the codes [0, top] a column can store;
// ok=false when none is left (the interval is inverted, or wholly above).
func narrowTo(r CodeRange, top uint32) (_ CodeRange, ok bool) {
	return CodeRange{From: r.From, To: min(r.To, top)}, r.From <= r.To && r.From <= top
}

// finestRange maps an interval of a level's codes to the finest codes they
// cover, [from·fanout, to·fanout + fanout−1], cut at the finest level's
// last code; ok=false when it covers none (it is inverted, or starts past
// the level's last code). In 64 bits: to·fanout overflows 32 for a To near
// the top of uint32. A finest-level interval (fanout 1) is only cut.
func finestRange(r CodeRange, fanout uint32, last uint64) (_ CodeRange, ok bool) {
	f := uint64(fanout)
	lo, hi := uint64(r.From)*f, min(uint64(r.To)*f+f-1, last)
	return CodeRange{From: uint32(lo), To: uint32(hi)}, r.From <= r.To && lo <= hi
}

// bindPred resolves one predicate against the table, maps its constants to
// the stored column's codes and picks its kernel shape; ok=false when no
// code the column holds passes. Mapping lives here and nowhere else: a
// dimension predicate's intervals become finest codes (finestRange), a text
// predicate's are narrowed to the column's width; an interval that accepts
// no stored code is dropped, one straddling the last storable code is cut
// there — so what is left can be compared in the column's own type and no
// constant is ever truncated into a match. [from, to] is the first
// surviving interval.
func bindPred(t *FactTable, p *RangePredicate) (bp boundPred, ok bool) {
	v := predCol(t, *p)
	bp = boundPred{ref: colRefOf(p), col: v.col, sel: estimateSelectivity(t, p)}
	stored := func(r CodeRange) (CodeRange, bool) { return narrowTo(r, bp.col.top()) }
	if !p.Text {
		last := uint64(t.schema.LevelCardinality(p.Dim, t.schema.Dimensions[p.Dim].Finest())) - 1
		stored = func(r CodeRange) (CodeRange, bool) { return finestRange(r, v.div, last) }
	}
	base, ok := stored(CodeRange{From: p.From, To: p.To})
	var or []CodeRange
	for _, r := range p.Or {
		if r, live := stored(r); live {
			or = append(or, r)
		}
	}
	if !ok {
		if len(or) == 0 {
			return bp, false
		}
		base, or = or[0], or[1:]
	}
	bp.from, bp.to, bp.or = base.From, base.To, or
	points := base.From == base.To // every surviving interval is a single code
	for _, r := range or {
		points = points && r.From == r.To
	}
	switch {
	case len(or) == 0:
		bp.shape = shapeRange
	case points:
		// The translated IN-list shape: collect the codes into one flat
		// list.
		bp.shape = shapePoints
		bp.points = append(make([]uint32, 0, 1+len(or)), base.From)
		for _, r := range or {
			bp.points = append(bp.points, r.From)
		}
	default:
		bp.shape = shapeOr
	}
	return bp, true
}

// colRef canonically identifies one predicate column: a (dim, level)
// pair or a text column index.
type colRef struct {
	text bool
	a, b int // (dim, level), or (textIndex, 0)
}

func colRefOf(p *RangePredicate) colRef {
	if p.Text {
		return colRef{text: true, a: p.TextIndex}
	}
	return colRef{a: p.Dim, b: p.Level}
}

func colRefLess(x, y colRef) bool {
	if x.text != y.text {
		return !x.text // dimension columns order before text columns
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

func (c colRef) String() string {
	if c.text {
		return fmt.Sprintf("t%d", c.a)
	}
	return fmt.Sprintf("d%d.%d", c.a, c.b)
}

// CanonicalPredOrder returns the indices of preds sorted by canonical
// column identity (dimension columns by (dim, level), then text columns by
// index; stable for duplicates), in buf's storage when it has room: a
// caller that passes a large enough buffer allocates nothing. A member's
// cell accumulators and the engine's result cache both key cell
// coordinates in this order, so they agree without sharing state.
func CanonicalPredOrder(preds []RangePredicate, buf []int) []int {
	order := buf[:0]
	for i := range preds {
		// Insertion sort: a request has a handful of predicates, and
		// stepping past strictly greater columns only keeps it stable.
		order = append(order, i)
		for j := i; j > 0 && colRefLess(colRefOf(&preds[order[j]]), colRefOf(&preds[order[j-1]])); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// FusionKey returns the canonical predicate-column-set signature of a
// request: two requests can be members of one plan exactly when their
// keys are equal (same multiset of filtered columns).
func FusionKey(req ScanRequest) string {
	var b strings.Builder
	for i, r := range sortedRefs(req.Predicates) {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// sortedRefs lists the columns the predicates filter, in canonical order.
func sortedRefs(preds []RangePredicate) []colRef {
	refs := make([]colRef, len(preds))
	for i := range preds {
		refs[i] = colRefOf(&preds[i])
	}
	sort.Slice(refs, func(x, y int) bool { return colRefLess(refs[x], refs[y]) })
	return refs
}

// CellShape returns CanonicalPredOrder of the request's predicates (in
// buf's storage) and reports whether sub-ranges of the request can soundly
// be served from per-cell aggregates keyed by its predicate columns' codes
// in that order. The op must be count, min or max — and the predicates
// must be 1 to MaxGroupCols plain ranges on distinct dimension columns (an
// inverted range is one: its cells are simply none). The one rule behind a
// member's cell grant and the engine's subsumption cache. Sum and avg
// cells would fold to the same exact bits; they stay out because granting
// them lifts the cache's hit share on dashboard traffic, and olapload's
// per-answer sample log then grows its heap with the extra answers past
// the benchmark's memory bound.

func CellShape(req *ScanRequest, buf []int) (order []int, ok bool) {
	order = CanonicalPredOrder(req.Predicates, buf)
	switch req.Op {
	case AggCount, AggMin, AggMax:
	default:
		return order, false
	}
	if n := len(order); n == 0 || n > MaxGroupCols {
		return order, false
	}
	for i, pi := range order {
		p := &req.Predicates[pi]
		if p.Text || len(p.Or) > 0 {
			return order, false
		}
		if i > 0 && colRefOf(p) == colRefOf(&req.Predicates[order[i-1]]) {
			return order, false // duplicate column: cell coordinates would be ambiguous
		}
	}
	return order, true
}

// acceptedBounds returns the hull [lo, hi] of every code the bound
// predicate accepts (it accepts at least [from, to]).
func acceptedBounds(bp *boundPred) (lo, hi uint32) {
	lo, hi = bp.from, bp.to
	for _, r := range bp.or {
		lo, hi = min(lo, r.From), max(hi, r.To)
	}
	return lo, hi
}

// acceptedWidth counts the codes a bound predicate accepts (Or overlaps
// double-counted — an ordering heuristic, like estimateSelectivity).
func acceptedWidth(bp *boundPred) int64 {
	if bp.shape == shapePoints {
		return int64(len(bp.points))
	}
	w := int64(bp.to-bp.from) + 1
	for _, r := range bp.or {
		w += int64(r.To-r.From) + 1
	}
	return w
}

// bind validates one member against the table and resolves its measure,
// its predicates (all of them — Bind moves the one the envelope applies
// out afterwards) and its key columns.
func (m *member) bind(t *FactTable, req *Member) error {
	m.op = req.Op
	if req.Op != AggCount {
		if req.Measure < 0 || req.Measure >= len(t.measures) {
			return fmt.Errorf("table: measure %d out of range", req.Measure)
		}
		m.meas = t.measures[req.Measure]
	}
	m.preds = make([]boundPred, 0, len(req.Predicates))
	for i := range req.Predicates {
		p := &req.Predicates[i]
		if err := validatePred(t, p); err != nil {
			return err
		}
		bp, ok := bindPred(t, p)
		m.never = m.never || !ok
		m.preds = append(m.preds, bp)
	}
	if len(req.GroupBy) > MaxGroupCols {
		return fmt.Errorf("table: at most %d group columns (got %d)", MaxGroupCols, len(req.GroupBy))
	}
	for _, g := range req.GroupBy {
		col, err := validateGroupCol(t, g)
		if err != nil {
			return err
		}
		m.gcols = append(m.gcols, col)
	}
	if req.Cells && len(req.GroupBy) == 0 {
		m.gcols = cellCols(t, &req.ScanRequest)
	}
	return nil
}

// cellCols resolves the key columns of a cell member — its predicate
// columns in canonical order — or nil when cells cannot be granted.
func cellCols(t *FactTable, req *ScanRequest) []levelCol {
	order, ok := CellShape(req, nil)
	if !ok {
		return nil
	}
	cols := make([]levelCol, len(order))
	for i, pi := range order {
		p := &req.Predicates[pi]
		if !fitsGroupKey(t.schema.LevelCardinality(p.Dim, p.Level)) {
			return nil
		}
		cols[i] = t.levelOf(p.Dim, p.Level)
	}
	return cols
}

// on returns the member's first predicate on the column (every member
// filters every column of the plan's set): the one that bounds the
// envelope.
func (m *member) on(ref colRef) *boundPred {
	pi := 0
	for m.preds[pi].ref != ref {
		pi++
	}
	return &m.preds[pi]
}

// Bind validates the members against the table once, checks that they
// filter one column multiset, picks the shared envelope predicate and
// assembles each member's residual list.
func Bind(t *FactTable, reqs []Member) (*Plan, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("table: a plan needs at least one member")
	}
	pl := &Plan{rows: t.rows, last: -1, members: make([]member, len(reqs))}
	var cols []colRef // the one column multiset, canonical order
	live := 0         // members that can match a row
	for mi := range reqs {
		m := &pl.members[mi]
		if err := m.bind(t, &reqs[mi]); err != nil {
			return nil, err
		}
		if mi == 0 {
			cols = sortedRefs(reqs[mi].Predicates)
		} else if !slices.Equal(sortedRefs(reqs[mi].Predicates), cols) {
			return nil, fmt.Errorf("table: member %d filters columns %q, member 0 filters %q; members of a plan must share one column set",
				mi, FusionKey(reqs[mi].ScanRequest), FusionKey(reqs[0].ScanRequest))
		}
		if !m.never {
			pl.last = mi
			live++
		}
	}
	if pl.last < 0 {
		return pl, nil
	}

	// Pick the shared column: the one whose envelope (the hull of every
	// live member's accepted interval) is estimated most selective. With
	// no predicate column at all the pass is unseeded.
	for ci, ref := range cols {
		if ci > 0 && ref == cols[ci-1] {
			continue
		}
		env := boundPred{ref: ref, shape: shapeRange}
		var perCode float64
		first := true
		for mi := range pl.members {
			m := &pl.members[mi]
			if m.never {
				continue
			}
			bp := m.on(ref)
			lo, hi := acceptedBounds(bp)
			if first {
				env.col, env.from, env.to = bp.col, lo, hi
			}
			env.from, env.to = min(env.from, lo), max(env.to, hi)
			if perCode == 0 {
				perCode = bp.sel / float64(acceptedWidth(bp))
			}
			first = false
		}
		env.sel = float64(int64(env.to-env.from)+1) * perCode
		if !pl.sharedSet || env.sel < pl.shared.sel {
			pl.sharedSet = true
			pl.shared = env
		}
	}

	// A lone live member whose predicate on the shared column is a point
	// list seeds with the list itself: the hull of scattered codes is wide,
	// so seeding with it and then walking the list over what it keeps costs
	// more than walking the list once over every row. (An Or-list is the
	// other way round: its intervals fill most of their hull.)
	if pl.sharedSet && live == 1 {
		if bp := pl.members[pl.last].on(pl.shared.ref); bp.shape == shapePoints {
			pl.shared = *bp
		}
	}

	// Residuals: every member predicate except one that the shared
	// predicate already applies exactly (the same shape and codes on the
	// shared column). Most selective first: the cheapest predicate to
	// refine with is the one that keeps the selection shortest for every
	// later pass. Stable, so equal estimates keep request order — binding
	// the same members always yields the same plan.
	for mi := range pl.members {
		m := &pl.members[mi]
		for pi := range m.preds {
			bp := &m.preds[pi]
			if pl.sharedSet && bp.ref == pl.shared.ref && bp.shape == pl.shared.shape &&
				bp.from == pl.shared.from && bp.to == pl.shared.to && slices.Equal(bp.points, pl.shared.points) {
				m.preds = append(m.preds[:pi], m.preds[pi+1:]...)
				break
			}
		}
		sort.SliceStable(m.preds, func(i, j int) bool { return m.preds[i].sel < m.preds[j].sel })
		if !m.never && !pl.sharedSet {
			m.dense = len(m.preds) == 0 && m.gcols == nil
			pl.fill = pl.fill || !m.dense
		}
	}
	return pl, nil
}
