package query

import (
	"fmt"

	"hybridolap/internal/cube"
	"hybridolap/internal/table"
)

// GroupRef names one GROUP BY column: a (dimension, level) pair, or a text
// column when Text is set. Grouping by a text column forces the GPU path
// (cubes aggregate over hierarchies only), exactly like text predicates.
type GroupRef struct {
	Dim, Level int
	Text       bool
	Column     string
}

// Grouped reports whether the query returns per-group rows.
func (q *Query) Grouped() bool { return len(q.GroupBy) > 0 }

// GroupResolution extends eq. (2) to grouped queries: the cube must be at
// least as fine as every condition *and* every grouping level.
func (q *Query) GroupResolution() int {
	r := q.Resolution()
	for _, g := range q.GroupBy {
		if !g.Text && g.Level > r {
			r = g.Level
		}
	}
	return r
}

// validateGroupBy checks the GROUP BY list against a schema.
func (q *Query) validateGroupBy(s *table.Schema) error {
	if len(q.GroupBy) > table.MaxGroupCols {
		return fmt.Errorf("query: at most %d GROUP BY columns (got %d)", table.MaxGroupCols, len(q.GroupBy))
	}
	for _, g := range q.GroupBy {
		if g.Text {
			if s.TextIndex(g.Column) < 0 {
				return fmt.Errorf("query: unknown GROUP BY text column %q", g.Column)
			}
			continue
		}
		if g.Dim < 0 || g.Dim >= len(s.Dimensions) {
			return fmt.Errorf("query: GROUP BY dimension %d out of range", g.Dim)
		}
		if g.Level < 0 || g.Level > s.Dimensions[g.Dim].Finest() {
			return fmt.Errorf("query: GROUP BY level %d out of range for %q",
				g.Level, s.Dimensions[g.Dim].Name)
		}
	}
	return nil
}

// GroupByGPUOnly reports whether the grouping itself forces the GPU path.
func (q *Query) GroupByGPUOnly() bool {
	for _, g := range q.GroupBy {
		if g.Text {
			return true
		}
	}
	return false
}

// Member decomposes the query for the GPU path as the one plan member
// every layer below scans: its ToScanRequest, keyed by its GROUP BY columns
// when it has any. Like ToScanRequest it requires translated text
// conditions; empty short-circuits provably empty predicates.
func (q *Query) Member(s *table.Schema) (m table.Member, empty bool, err error) {
	if m.ScanRequest, empty, err = q.ToScanRequest(s); err != nil {
		return table.Member{}, false, err
	}
	for _, g := range q.GroupBy {
		if g.Text {
			ti := s.TextIndex(g.Column)
			if ti < 0 {
				return table.Member{}, false, fmt.Errorf("query: unknown GROUP BY column %q", g.Column)
			}
			m.GroupBy = append(m.GroupBy, table.GroupCol{Text: true, TextIndex: ti})
			continue
		}
		m.GroupBy = append(m.GroupBy, table.GroupCol{Dim: g.Dim, Level: g.Level})
	}
	return m, empty, nil
}

// CubeGroupLevels converts the GROUP BY list for the cube path; it fails
// on text groupings.
func (q *Query) CubeGroupLevels() ([]cube.GroupLevel, error) {
	out := make([]cube.GroupLevel, 0, len(q.GroupBy))
	for _, g := range q.GroupBy {
		if g.Text {
			return nil, fmt.Errorf("query: GROUP BY text column %q cannot use the cube path", g.Column)
		}
		out = append(out, cube.GroupLevel{Dim: g.Dim, Level: g.Level})
	}
	return out, nil
}
