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

// Merge combines two partial results of the same request (the parallel
// reduction step). Count/sum add; min/max compare; avg sums and divides in
// Finalize. Partials are integer units, so every merge order gives the
// same bits. gpusim merges its work units' partials and the cluster
// coordinator its shards' (one partial each) through this on the scalar
// hot path, so it must stay allocation-free.
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
