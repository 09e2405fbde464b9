// Package oracle is the reference every route of the system is checked
// against: one row-at-a-time loop that answers any table.Member — scalar,
// or keyed by up to table.MaxGroupCols GroupBy columns — over a fact table
// or over a live snapshot's stripes in logical row order.
//
// It shares no kernel with what it checks. It never binds a plan: a
// predicate is matched on the level's own code (the finest code divided by
// the level's fanout, taken from the schema's cardinalities), not on the
// finest-code intervals a plan binds it to, and codes are read through the
// exported column accessors. What it does share is the definition of an
// answer: partials in the measure's units (table.State), merged by
// table.Merge and finalised only by table.Finalize and
// table.FinalizeGroups — the one rule that turns units into values.
//
// A cell-asking member (Member.Cells) answers as the scalar it is: cells
// are how a plan accumulates, not what it answers.
package oracle

import (
	"fmt"

	"hybridolap/internal/table"
)

// Snapshot answers m over every row of snap, stripe by stripe in logical
// row order, threading one state through them. Each stripe is validated
// as Bind validates it, so a malformed member fails on any snapshot with a
// stripe.
func Snapshot(snap *table.Snapshot, m table.Member) (table.State, error) {
	if snap == nil {
		return table.State{}, fmt.Errorf("oracle: nil snapshot")
	}
	var st table.State
	for _, s := range snap.Stripes() {
		if err := scan(s.Table(), m, 0, s.Rows(), &st); err != nil {
			return table.State{}, err
		}
	}
	return st, nil
}

// Table answers m over every row of t.
func Table(t *table.FactTable, m table.Member) (table.State, error) {
	return Rows(t, m, 0, t.Rows())
}

// Rows answers m over rows [lo, hi) of t.
func Rows(t *table.FactTable, m table.Member, lo, hi int) (table.State, error) {
	var st table.State
	err := scan(t, m, lo, hi, &st)
	return st, err
}

// Final finalises m's state over a table of schema s: the scalar result,
// or, for a member with GroupBy columns, its groups sorted by key (Result
// then zero).
func Final(s *table.Schema, m table.Member, st table.State) (table.ScanResult, []table.GroupRow) {
	scale := s.MeasureScale(m.Measure)
	if len(m.GroupBy) == 0 {
		return table.Finalize(m.Op, scale, st.Scalar), nil
	}
	return table.ScanResult{}, table.FinalizeGroups(m.Op, scale, st.Groups, len(m.GroupBy))
}

// column is one level or text column of a table as the oracle reads it:
// the code of row r is codes.At(r) / div.
type column struct {
	codes table.Codes
	div   uint32
}

func (c column) at(r int) uint32 { return c.codes.At(r) / c.div }

// level returns dimension d's level l: the stored finest column and the
// fanout from l down to it.
func level(t *table.FactTable, d, l int) column {
	s := t.Schema()
	finest := s.Dimensions[d].Finest()
	return column{
		codes: t.DimLevelColumn(d, finest),
		div:   uint32(s.LevelCardinality(d, finest) / s.LevelCardinality(d, l)),
	}
}

// groupCodes is the most distinct codes one 16-bit GroupKey component
// holds.
const groupCodes = 1 << 16

// columns validates m against t — rejecting exactly the members Bind
// rejects — and resolves its predicate and key columns once, outside the
// row loop.
func columns(t *table.FactTable, m *table.Member) (preds, keys []column, meas []int32, err error) {
	s := t.Schema()
	if m.Op != table.AggCount {
		if m.Measure < 0 || m.Measure >= len(s.Measures) {
			return nil, nil, nil, fmt.Errorf("oracle: measure %d out of range", m.Measure)
		}
		meas = t.MeasureColumn(m.Measure)
	}
	for _, p := range m.Predicates {
		switch {
		case p.Text && (p.TextIndex < 0 || p.TextIndex >= len(s.Texts)):
			return nil, nil, nil, fmt.Errorf("oracle: text column %d out of range", p.TextIndex)
		case p.Text:
			preds = append(preds, column{codes: t.TextColumn(p.TextIndex), div: 1})
		case p.Dim < 0 || p.Dim >= len(s.Dimensions) || p.Level < 0 || p.Level >= len(s.Dimensions[p.Dim].Levels):
			return nil, nil, nil, fmt.Errorf("oracle: column (%d,%d) out of range", p.Dim, p.Level)
		default:
			preds = append(preds, level(t, p.Dim, p.Level))
		}
	}
	if len(m.GroupBy) > table.MaxGroupCols {
		return nil, nil, nil, fmt.Errorf("oracle: %d group columns, at most %d", len(m.GroupBy), table.MaxGroupCols)
	}
	for _, g := range m.GroupBy {
		switch {
		case g.Text && (g.TextIndex < 0 || g.TextIndex >= len(s.Texts)):
			return nil, nil, nil, fmt.Errorf("oracle: group text column %d out of range", g.TextIndex)
		case g.Text:
			if ds := t.Dicts(); ds != nil {
				if n := ds.DictLen(s.Texts[g.TextIndex].Name); n > groupCodes {
					return nil, nil, nil, fmt.Errorf("oracle: group text column of %d codes", n)
				}
			}
			keys = append(keys, column{codes: t.TextColumn(g.TextIndex), div: 1})
		case g.Dim < 0 || g.Dim >= len(s.Dimensions) || g.Level < 0 || g.Level >= len(s.Dimensions[g.Dim].Levels):
			return nil, nil, nil, fmt.Errorf("oracle: group column (%d,%d) out of range", g.Dim, g.Level)
		case s.LevelCardinality(g.Dim, g.Level) > groupCodes:
			return nil, nil, nil, fmt.Errorf("oracle: group level of %d codes", s.LevelCardinality(g.Dim, g.Level))
		default:
			keys = append(keys, level(t, g.Dim, g.Level))
		}
	}
	return preds, keys, meas, nil
}

// matches reports whether code v passes p: it lies in [From, To] or in
// any Or interval.
func matches(p *table.RangePredicate, v uint32) bool {
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

// scan is the one loop: it accumulates m over rows [lo, hi) of t into st,
// continuing whatever st already holds. A scalar member is the keyed case
// with no key columns, accumulating into st.Scalar instead of a group.
func scan(t *table.FactTable, m table.Member, lo, hi int, st *table.State) error {
	if lo < 0 || hi > t.Rows() || lo > hi {
		return fmt.Errorf("oracle: rows [%d,%d) outside [0,%d)", lo, hi, t.Rows())
	}
	preds, keys, meas, err := columns(t, &m)
	if err != nil {
		return err
	}
rows:
	for r := lo; r < hi; r++ {
		for i := range preds {
			if !matches(&m.Predicates[i], preds[i].at(r)) {
				continue rows
			}
		}
		acc := &st.Scalar
		var g table.ScanResult
		var key table.GroupKey
		if keys != nil {
			for _, k := range keys {
				key = key<<16 | table.GroupKey(k.at(r))
			}
			if st.Groups == nil {
				st.Groups = make(table.Groups)
			}
			g = st.Groups[key]
			acc = &g
		}
		first := acc.Rows == 0
		acc.Rows++
		switch m.Op {
		case table.AggSum, table.AggAvg:
			acc.Value += float64(meas[r])
		case table.AggMin:
			if v := float64(meas[r]); first || v < acc.Value {
				acc.Value = v
			}
		case table.AggMax:
			if v := float64(meas[r]); first || v > acc.Value {
				acc.Value = v
			}
		}
		if keys != nil {
			st.Groups[key] = g
		}
	}
	return nil
}
