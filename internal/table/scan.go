package table

import "fmt"

// CodeRange is one inclusive code interval of a disjunctive predicate.
type CodeRange struct {
	From, To uint32
}

// RangePredicate filters one column of the table to codes in [From, To]
// (inclusive), mirroring the paper's condition C_L(f, t, l_K): "the thread
// checks to see if the tuple contains a value in the given range". A
// predicate may additionally carry Or ranges: the row passes when its code
// falls in [From, To] or in any Or interval — how IN-lists of dictionary
// codes are evaluated in a single column pass.
type RangePredicate struct {
	// Column selects the filtered column: a (dimension, level) pair when
	// Text is false, or the text column index when Text is true.
	Dim, Level int
	Text       bool
	TextIndex  int
	From, To   uint32
	// Or lists additional accepted intervals (disjunction with [From, To]).
	Or []CodeRange
}

// matches reports whether a code passes the predicate.
func (p *RangePredicate) matches(v uint32) bool {
	if v >= p.From && v <= p.To {
		return true
	}
	for _, r := range p.Or {
		if v >= r.From && v <= r.To {
			return true
		}
	}
	return false
}

// AggOp selects the aggregation applied to the measure column.
type AggOp int

const (
	AggSum AggOp = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// String names the op.
func (op AggOp) String() string {
	switch op {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("AggOp(%d)", int(op))
	}
}

// ScanRequest is a full table-scan aggregation: filter rows by every
// predicate, then aggregate one measure.
type ScanRequest struct {
	Predicates []RangePredicate
	Measure    int
	Op         AggOp
}

// ColumnsAccessed is C_QD in eq. (12): the number of filtration conditions
// plus the number of data columns processed (always 1 measure here, unless
// the op is a pure count, which needs no data column).
func (r ScanRequest) ColumnsAccessed() int {
	n := len(r.Predicates)
	if r.Op != AggCount {
		n++
	}
	return n
}

// ScanResult carries an aggregate and the number of matching rows. Before
// Finalize it is a partial in the measure's units — a sum of int32 units,
// or the selected unit value — so it is an integer, exact in a float64
// while the sum of |units| stays below 2^53, and partials merge to the same
// bits in every order. Finalize turns it into the user's value.
type ScanResult struct {
	Value float64
	Rows  int64
}

// predCol resolves the column view a predicate filters.
func predCol(t *FactTable, p RangePredicate) levelCol {
	if p.Text {
		return viewOf(t.texts[p.TextIndex], 1)
	}
	return t.levelOf(p.Dim, p.Level)
}

// ScanRange runs the request sequentially over rows [lo, hi) and returns a
// partial result. It is the row-at-a-time reference kernel the vectorized
// Plan is proven against; hot callers (the GPU simulator's per-stripe
// blocks) go through Bind + (*Plan).RangeInto instead, which validates
// once per request rather than once per unit.
func ScanRange(t *FactTable, req ScanRequest, lo, hi int) (ScanResult, error) {
	if lo < 0 || hi > t.rows || lo > hi {
		return ScanResult{}, fmt.Errorf("table: scan range [%d,%d) outside [0,%d)", lo, hi, t.rows)
	}
	if req.Op != AggCount {
		if req.Measure < 0 || req.Measure >= len(t.measures) {
			return ScanResult{}, fmt.Errorf("table: measure %d out of range", req.Measure)
		}
	}
	cols := make([]levelCol, len(req.Predicates))
	for i := range req.Predicates {
		if err := validatePred(t, &req.Predicates[i]); err != nil {
			return ScanResult{}, err
		}
		cols[i] = predCol(t, req.Predicates[i])
	}
	var meas []int32
	if req.Op != AggCount {
		meas = t.measures[req.Measure]
	}

	res := ScanResult{} // min/max: Value is set on the first match
	first := true
rowLoop:
	for r := lo; r < hi; r++ {
		for i := range req.Predicates {
			p := &req.Predicates[i]
			v := cols[i].at(r)
			if len(p.Or) == 0 {
				if v < p.From || v > p.To {
					continue rowLoop
				}
			} else if !p.matches(v) {
				continue rowLoop
			}
		}
		res.Rows++
		switch req.Op {
		case AggSum, AggAvg:
			res.Value += float64(meas[r])
		case AggCount:
			// rows counter is the value
		case AggMin:
			if v := float64(meas[r]); first || v < res.Value {
				res.Value = v
			}
		case AggMax:
			if v := float64(meas[r]); first || v > res.Value {
				res.Value = v
			}
		}
		first = false
	}
	return res, nil
}

// Scan runs the request over the whole table sequentially.
func Scan(t *FactTable, req ScanRequest) (ScanResult, error) {
	res, err := ScanRange(t, req, 0, t.rows)
	if err != nil {
		return ScanResult{}, err
	}
	return Finalize(req.Op, t.schema.MeasureScale(req.Measure), res), nil
}

// Merge combines two partial results of the same request (the parallel
// reduction step). Count/sum add; min/max compare; avg sums and divides in
// Finalize. Partials are integer units, so every merge order gives the
// same bits. The cluster coordinator folds every shard's chunk partials
// through this on the scalar hot path, so it must stay allocation-free.
//
//olaplint:noalloc
func Merge(op AggOp, a, b ScanResult) ScanResult {
	out := ScanResult{Rows: a.Rows + b.Rows}
	switch op {
	case AggSum, AggAvg, AggCount:
		out.Value = a.Value + b.Value
	case AggMin:
		switch {
		case a.Rows == 0:
			out.Value = b.Value
		case b.Rows == 0:
			out.Value = a.Value
		case b.Value < a.Value:
			out.Value = b.Value
		default:
			out.Value = a.Value
		}
	case AggMax:
		switch {
		case a.Rows == 0:
			out.Value = b.Value
		case b.Rows == 0:
			out.Value = a.Value
		case b.Value > a.Value:
			out.Value = b.Value
		default:
			out.Value = a.Value
		}
	}
	return out
}

// OrderFree reports whether the result cache and the cluster planner may
// answer op from a fold other than the one its GPU answer runs: counts and
// min/max, whose partials are their own fold. Sum and avg partials are
// exact integer units too, so their bits no longer depend on the fold
// tree either; they stay off this list until the fold grid's block replay
// (gpusim.Fold) is retired, which the cache's carry of them still uses.
func (op AggOp) OrderFree() bool {
	return op == AggCount || op == AggMin || op == AggMax
}

// Finalize completes a partial of op over a measure stored at scale, and
// is the one place units become the user's values: sum = Σc/10^s, avg =
// Σc/(rows·10^s), min/max = c/10^s, count = rows. Every route — scan, cube
// walk, cache, shard fold — finalises an exact integer partial through it,
// so equal partials answer with equal bits.
//
//olaplint:noalloc
func Finalize(op AggOp, scale int, r ScanResult) ScanResult {
	switch op {
	case AggAvg:
		if r.Rows > 0 {
			r.Value /= float64(r.Rows) * pow10(scale)
		}
	case AggCount:
		r.Value = float64(r.Rows)
	default:
		r.Value /= pow10(scale)
	}
	return r
}
