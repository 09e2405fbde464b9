package table

import (
	"fmt"

	"hybridolap/internal/dict"
)

// WithDicts returns a shallow copy of t sharing every column but using a
// different dictionary set. The live-table path re-points the offline-
// built base stripe at the append-capable dictionary set so all stripes
// of a registry translate text against the same (growing) dictionaries.
func (t *FactTable) WithDicts(ds *dict.Set) *FactTable {
	out := *t
	out.dicts = ds
	return &out
}

// FromColumns materializes an immutable FactTable directly from columnar
// data: finest-level coordinates per dimension, measure columns in their
// units, and
// pre-encoded text code columns referencing a shared (append-capable)
// dictionary set. The inputs are full-width; the stored columns are built
// at their own widths by the same finestColumn / textColumn as
// Generate (the coordinate and code slices are read, not kept). This
// is the delta-stripe constructor — the ingest path encodes text against
// the table's live dictionaries before materializing, so every stripe of a
// registry shares one dictionary set and codes stay comparable across
// stripes; a code the dictionary does not define is rejected.
func FromColumns(schema Schema, coords [][]uint32, measures [][]int32, texts [][]uint32, dicts *dict.Set) (*FactTable, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(coords) != len(schema.Dimensions) {
		return nil, fmt.Errorf("table: %d coordinate columns, schema has %d dimensions",
			len(coords), len(schema.Dimensions))
	}
	if len(measures) != len(schema.Measures) {
		return nil, fmt.Errorf("table: %d measure columns, schema has %d measures",
			len(measures), len(schema.Measures))
	}
	if len(texts) != len(schema.Texts) {
		return nil, fmt.Errorf("table: %d text columns, schema has %d", len(texts), len(schema.Texts))
	}
	if len(schema.Texts) > 0 && dicts == nil {
		return nil, fmt.Errorf("table: text columns need a dictionary set")
	}
	rows := 0
	if len(coords) > 0 {
		rows = len(coords[0])
	}
	for d, col := range coords {
		if len(col) != rows {
			return nil, fmt.Errorf("table: dimension %d has %d rows, want %d", d, len(col), rows)
		}
	}
	for m, col := range measures {
		if len(col) != rows {
			return nil, fmt.Errorf("table: measure %d has %d rows, want %d", m, len(col), rows)
		}
	}
	for i, col := range texts {
		if len(col) != rows {
			return nil, fmt.Errorf("table: text column %d has %d rows, want %d", i, len(col), rows)
		}
	}

	t := &FactTable{schema: schema, rows: rows, measures: measures, dicts: dicts}
	t.dims = make([]Codes, len(schema.Dimensions))
	for d, spec := range schema.Dimensions {
		col, err := finestColumn(spec, coords[d])
		if err != nil {
			return nil, err
		}
		t.dims[d] = col
	}
	if len(texts) > 0 {
		t.texts = make([]Codes, len(texts))
		for i, spec := range schema.Texts {
			col, err := textColumn(spec.Name, texts[i], dicts.DictLen(spec.Name))
			if err != nil {
				return nil, err
			}
			t.texts[i] = col
		}
	}
	return t, nil
}
