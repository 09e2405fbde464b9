// Package query models OLAP queries the way the paper's scheduler sees
// them: a set of per-dimension range conditions with resolutions (eq. 1),
// a derived cube resolution R = max(r_i) (eq. 2), a sub-cube footprint for
// CPU cost estimation (eq. 3), and a column-wise decomposition Q_D for GPU
// cost estimation (eqs. 11–12). Text predicates are carried verbatim until
// the translation partition rewrites them to integer code ranges.
package query

import (
	"fmt"

	"hybridolap/internal/cube"
	"hybridolap/internal/table"
)

// Condition is C_L(f, t, r): an inclusive coordinate range [From, To] on
// dimension Dim expressed at resolution level Level.
type Condition struct {
	Dim      int
	Level    int
	From, To uint32
}

// TextCondition is a predicate on a dictionary-encoded text column. Until
// translated it holds string bounds (equality when From == To) or an
// IN-list of literals; after translation it holds the code interval (or
// code set). A query containing text conditions can only run on the GPU
// path, and only after translation — the paper's motivation for the
// dedicated translation partition.
type TextCondition struct {
	Column   string
	From, To string
	// In, when non-empty, makes this an IN-list predicate; From/To are
	// ignored. Each literal costs one dictionary lookup (eq. 16 counts it
	// towards CDT_QD).
	In []string

	Translated bool
	FromCode   uint32
	ToCode     uint32
	// InCodes holds the translated IN-list codes (literals missing from
	// the dictionary are simply dropped: they can match no row).
	InCodes []uint32
	// ExtraCodes holds point codes outside [FromCode, ToCode] that a range
	// translation must also accept: an append-only dictionary assigns
	// arrival-order codes to strings ingested after the base build, so a
	// lexical interval can cover codes scattered past the sorted base.
	ExtraCodes []uint32
	// Empty means translation proved no stored value matches; the scan can
	// short-circuit to an empty result.
	Empty bool
}

// Lookups returns how many dictionary lookups translating this condition
// costs: one per IN literal, one for an equality, two for a range.
func (tc *TextCondition) Lookups() int {
	if len(tc.In) > 0 {
		return len(tc.In)
	}
	if tc.From == tc.To {
		return 1
	}
	return 2
}

// Query is one analytical request.
type Query struct {
	ID         int64
	Conditions []Condition
	TextConds  []TextCondition
	// GroupBy, when non-empty, makes this a grouped query returning one
	// aggregate per distinct key combination.
	GroupBy []GroupRef
	Measure int
	Op      table.AggOp
}

// Resolution is R in eq. (2): the finest level any condition requires.
// A query with no dimension conditions has resolution 0 (any cube can
// answer it).
func (q *Query) Resolution() int {
	r := 0
	for _, c := range q.Conditions {
		if c.Level > r {
			r = c.Level
		}
	}
	return r
}

// NeedsTranslation reports whether the query carries untranslated text
// predicates (CDT_QD > 0, eq. 16, before translation ran).
func (q *Query) NeedsTranslation() bool {
	for _, tc := range q.TextConds {
		if !tc.Translated {
			return true
		}
	}
	return false
}

// TextColumns returns the text column names referenced (the set CDT_QD of
// eq. 16 indexes its dictionary lengths by these).
func (q *Query) TextColumns() []string {
	cols := make([]string, len(q.TextConds))
	for i, tc := range q.TextConds {
		cols[i] = tc.Column
	}
	return cols
}

// GPUOnly reports whether the query cannot be answered from OLAP cubes:
// cubes aggregate over dimension hierarchies only, so any text predicate —
// or a GROUP BY over a text column — forces the fact-table path.
func (q *Query) GPUOnly() bool { return len(q.TextConds) > 0 || q.GroupByGPUOnly() }

// ColumnsAccessed is C_QD of eq. (12): filtration conditions (dimension +
// text) plus grouping columns plus the data column (none for pure counts).
func (q *Query) ColumnsAccessed() int {
	n := len(q.Conditions) + len(q.TextConds) + len(q.GroupBy)
	if q.Op != table.AggCount {
		n++
	}
	return n
}

// Validate checks the query against a schema.
func (q *Query) Validate(s *table.Schema) error {
	seen := make(map[[2]int]bool)
	for _, c := range q.Conditions {
		if c.Dim < 0 || c.Dim >= len(s.Dimensions) {
			return fmt.Errorf("query: dimension %d out of range", c.Dim)
		}
		dim := s.Dimensions[c.Dim]
		if c.Level < 0 || c.Level > dim.Finest() {
			return fmt.Errorf("query: level %d out of range for dimension %q", c.Level, dim.Name)
		}
		if c.To < c.From {
			return fmt.Errorf("query: inverted range [%d,%d] on dimension %q", c.From, c.To, dim.Name)
		}
		if int64(c.To) >= int64(dim.Levels[c.Level].Cardinality) {
			return fmt.Errorf("query: range [%d,%d] exceeds cardinality %d of %q.%q",
				c.From, c.To, dim.Levels[c.Level].Cardinality, dim.Name, dim.Levels[c.Level].Name)
		}
		key := [2]int{c.Dim, c.Level}
		if seen[key] {
			return fmt.Errorf("query: duplicate condition on dimension %q level %d", dim.Name, c.Level)
		}
		seen[key] = true
	}
	for _, tc := range q.TextConds {
		if s.TextIndex(tc.Column) < 0 {
			return fmt.Errorf("query: unknown text column %q", tc.Column)
		}
		if !tc.Translated && len(tc.In) == 0 && tc.From > tc.To {
			return fmt.Errorf("query: inverted text range [%q,%q] on %q", tc.From, tc.To, tc.Column)
		}
	}
	if q.Op < table.AggSum || q.Op > table.AggAvg {
		return fmt.Errorf("query: unknown aggregate op %v", q.Op)
	}
	if q.Op != table.AggCount {
		if q.Measure < 0 || q.Measure >= len(s.Measures) {
			return fmt.Errorf("query: measure %d out of range", q.Measure)
		}
	}
	return q.validateGroupBy(s)
}

// Box converts the dimension conditions into a cube.Box at resolution
// level r (which must be >= every condition's level). Dimensions without a
// condition span their full cardinality; a dimension with conditions at
// several levels (allowed by the Q_D decomposition, eq. 11) gets the
// intersection of their expanded ranges. empty reports a provably empty
// intersection — the query matches nothing. The exact-multiple hierarchy
// guarantees the rewrite is lossless.
func (q *Query) Box(s *table.Schema, r int) (box cube.Box, empty bool, err error) {
	box = make(cube.Box, len(s.Dimensions))
	for d, dim := range s.Dimensions {
		l := r
		if l > dim.Finest() {
			l = dim.Finest()
		}
		box[d] = cube.Range{From: 0, To: uint32(dim.Levels[l].Cardinality) - 1}
	}
	for _, c := range q.Conditions {
		dim := s.Dimensions[c.Dim]
		l := r
		if l > dim.Finest() {
			l = dim.Finest()
		}
		if c.Level > l {
			return nil, false, fmt.Errorf("query: condition level %d finer than box level %d", c.Level, l)
		}
		ratio := uint32(dim.Levels[l].Cardinality / dim.Levels[c.Level].Cardinality)
		lo, hi := c.From*ratio, (c.To+1)*ratio-1
		if lo > box[c.Dim].From {
			box[c.Dim].From = lo
		}
		if hi < box[c.Dim].To {
			box[c.Dim].To = hi
		}
		if box[c.Dim].From > box[c.Dim].To {
			return nil, true, nil
		}
	}
	return box, false, nil
}

// SubCubeBytes is eq. (3) evaluated against a cube set: the number of bytes
// the CPU partition would stream to answer the query. ok is false when no
// stored cube is fine enough (the query is GPU-bound).
func (q *Query) SubCubeBytes(cs *cube.Set) (int64, bool) {
	// Grouped queries need a cube fine enough for the grouping levels too,
	// so the level pick (and hence the streamed size) uses GroupResolution.
	r := q.GroupResolution()
	box, empty, err := q.Box(cs.Schema(), r)
	if err != nil {
		return 0, false
	}
	if empty {
		// An empty intersection streams nothing; it is trivially
		// CPU-answerable at zero cost if any adequate level exists.
		if _, ok := cs.PickLevel(r); ok {
			return 0, true
		}
		return 0, false
	}
	return cs.SubCubeBytes(box, r)
}

// ToScanRequest decomposes the query for the GPU path (eq. 11): every
// dimension condition addresses its own (dimension, level) column and every
// translated text condition its code column. It fails if any text condition
// is untranslated. emptyResult reports that a translated text predicate
// matched nothing, so the scan can be skipped entirely.
func (q *Query) ToScanRequest(s *table.Schema) (req table.ScanRequest, emptyResult bool, err error) {
	req.Measure = q.Measure
	req.Op = q.Op
	for _, c := range q.Conditions {
		req.Predicates = append(req.Predicates, table.RangePredicate{
			Dim: c.Dim, Level: c.Level, From: c.From, To: c.To,
		})
	}
	for _, tc := range q.TextConds {
		if !tc.Translated {
			return table.ScanRequest{}, false, fmt.Errorf("query: text condition on %q not translated", tc.Column)
		}
		if tc.Empty {
			return req, true, nil
		}
		ti := s.TextIndex(tc.Column)
		if ti < 0 {
			return table.ScanRequest{}, false, fmt.Errorf("query: unknown text column %q", tc.Column)
		}
		if len(tc.In) > 0 {
			pred := table.RangePredicate{
				Text: true, TextIndex: ti,
				From: tc.InCodes[0], To: tc.InCodes[0],
			}
			for _, c := range tc.InCodes[1:] {
				pred.Or = append(pred.Or, table.CodeRange{From: c, To: c})
			}
			req.Predicates = append(req.Predicates, pred)
			continue
		}
		pred := table.RangePredicate{
			Text: true, TextIndex: ti, From: tc.FromCode, To: tc.ToCode,
		}
		for _, c := range tc.ExtraCodes {
			pred.Or = append(pred.Or, table.CodeRange{From: c, To: c})
		}
		req.Predicates = append(req.Predicates, pred)
	}
	return req, false, nil
}

// Clone deep-copies the query (schedulers mutate translation state).
func (q *Query) Clone() *Query {
	out := *q
	out.Conditions = append([]Condition(nil), q.Conditions...)
	out.TextConds = append([]TextCondition(nil), q.TextConds...)
	out.GroupBy = append([]GroupRef(nil), q.GroupBy...)
	for i := range out.TextConds {
		tc := &out.TextConds[i]
		tc.In = append([]string(nil), tc.In...)
		tc.InCodes = append([]uint32(nil), tc.InCodes...)
		tc.ExtraCodes = append([]uint32(nil), tc.ExtraCodes...)
	}
	return &out
}
