// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. IV): the CPU processing-rate tables (Tables 1–2), the
// hybrid system table (Table 3), the measurement figures (Figs. 3–5, 8, 9),
// the translation-overhead result, and the ablations DESIGN.md calls out.
//
// Each experiment returns a printable Table carrying the measured series
// next to the paper's published values, so `olapbench` output reads as a
// side-by-side reproduction report.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps and workloads for CI-speed runs.
	Quick bool
	// Seed drives all synthetic data and workloads.
	Seed int64
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// pick returns quick or full depending on the option.
func (o Options) pick(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Table is a printable experiment result.
type Table struct {
	ID      string // e.g. "table1", "fig8"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Baseline is the machine-readable record of an experiment that
	// `olapbench -compare` gates; nil for every other experiment.
	Baseline Baseline `json:"-"`
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
	fmt.Fprintln(w)
}

// f formats a float compactly. Values within 1e-12 of zero print as "0":
// measured rates and latencies are never exactly zero, only absent.
func f(v float64) string {
	switch {
	case math.Abs(v) < 1e-12:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// levelScan builds a query at resolution level covering widthFrac of every
// dimension's cardinality, anchored at coordinate 0. With trim set, the
// first dimension is shortened by one coordinate so the sub-cube stays
// strictly below the full cube size (keeping, e.g., the 512 MB cube's scan
// inside the paper model's Range A, as the paper's "~500 MB" cube was).
func levelScan(s *table.Schema, id int64, level int, widthFrac float64, trim bool) *query.Query {
	q := &query.Query{ID: id, Measure: 0, Op: table.AggSum}
	for d, dim := range s.Dimensions {
		l := level
		if l > dim.Finest() {
			l = dim.Finest()
		}
		card := dim.Levels[l].Cardinality
		width := int(widthFrac * float64(card))
		if width < 1 {
			width = 1
		}
		if width > card {
			width = card
		}
		if trim && d == 0 && width == card && card > 1 {
			width = card - 1
		}
		q.Conditions = append(q.Conditions, query.Condition{
			Dim: d, Level: l, From: 0, To: uint32(width - 1),
		})
	}
	return q
}

// textQuery builds a GPU-only query: a moderate fine-resolution range plus
// an equality predicate on a text column whose literal is the k-th stored
// value of the real dictionary (so translation always succeeds).
func textQuery(ft *table.FactTable, id int64, column string, k int) (*query.Query, error) {
	d, ok := ft.Dicts().Get(column)
	if !ok || d.Len() == 0 {
		return nil, fmt.Errorf("experiments: no dictionary for %q", column)
	}
	lit, _ := d.Decode(uint32(k % d.Len()))
	s := ft.Schema()
	dim := s.Dimensions[0]
	card := dim.Levels[dim.Finest()].Cardinality
	width := card / 8
	if width < 1 {
		width = 1
	}
	from := (k * 13) % (card - width + 1)
	return &query.Query{
		ID: id,
		Conditions: []query.Condition{{
			Dim: 0, Level: dim.Finest(), From: uint32(from), To: uint32(from + width - 1),
		}},
		TextConds: []query.TextCondition{{Column: column, From: lit, To: lit}},
		Measure:   0, Op: table.AggSum,
	}, nil
}
