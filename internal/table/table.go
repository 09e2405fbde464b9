package table

import (
	"fmt"
	"slices"

	"hybridolap/internal/dict"
)

// FactTable is an immutable columnar fact table. Each dimension stores one
// Codes column, its finest level's coordinates, and each text column one
// of dictionary codes — integer codes in the 8, 16 or 32 bits the
// cardinality needs; measures are float64. A coarser level is not stored:
// its code is the finest code divided by the level's fanout, so a plan
// binds a coarse predicate to the finest codes it covers and divides
// group and cell keys (levelOf). Columns are contiguous slices — the 1-D
// per-column layout the paper uses for maximum GPU memory bandwidth.
type FactTable struct {
	schema Schema
	rows   int

	// dims[d] is the finest-level code column of dimension d.
	dims     []Codes
	measures [][]float64
	texts    []Codes
	dicts    *dict.Set
}

// Schema returns the table's schema.
func (t *FactTable) Schema() *Schema { return &t.schema }

// Rows returns the number of tuples.
func (t *FactTable) Rows() int { return t.rows }

// Dicts returns the per-column dictionary set for text columns (nil when
// the table has no text columns).
func (t *FactTable) Dicts() *dict.Set { return t.dicts }

// DimLevelColumn returns the code column of (dimension, level). The finest
// level's is the stored column; a coarser level's is derived into a fresh
// column at the width its cardinality needs — a copy per call, for cold
// readers (the lattice and iceberg builds) that walk a level row by row.
// A cube build reads the finest column and rolls up through a per-code
// table instead.
func (t *FactTable) DimLevelColumn(dim, lvl int) Codes {
	v := t.levelOf(dim, lvl)
	if v.div == 1 {
		return v.col
	}
	return v.col.rolledUp(codeWidth(t.schema.LevelCardinality(dim, lvl)), v.div)
}

// MeasureColumn returns the data column of measure m.
func (t *FactTable) MeasureColumn(m int) []float64 { return t.measures[m] }

// TextColumn returns the encoded codes of text column i.
func (t *FactTable) TextColumn(i int) Codes { return t.texts[i] }

// SizeBytes returns the bytes the columns actually store: each code
// column at its own width and 8 per measure cell. This is the table
// footprint that must fit in the simulated GPU's global memory, and what a
// compaction or a shard repair moves.
func (t *FactTable) SizeBytes() int64 {
	n := int64(len(t.measures)) * int64(t.rows) * 8
	for _, col := range t.dims {
		n += col.sizeBytes()
	}
	for _, col := range t.texts {
		n += col.sizeBytes()
	}
	return n
}

// Builder assembles a FactTable row by row.
type Builder struct {
	schema   Schema
	dimCoord [][]uint32 // finest-level coordinate per dimension
	measures [][]float64
	textBldr []*dict.Builder
	textProv [][]dict.ID
	rows     int
}

// NewBuilder validates the schema and returns an empty builder.
func NewBuilder(schema Schema) (*Builder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{schema: schema}
	b.dimCoord = make([][]uint32, len(schema.Dimensions))
	b.measures = make([][]float64, len(schema.Measures))
	b.textBldr = make([]*dict.Builder, len(schema.Texts))
	b.textProv = make([][]dict.ID, len(schema.Texts))
	for i := range b.textBldr {
		b.textBldr[i] = dict.NewBuilder()
	}
	return b, nil
}

// Row is one input tuple for Builder.Append.
type Row struct {
	// Coords[d] is the coordinate in dimension d at its finest level.
	Coords []int
	// Measures[m] is the value of measure m.
	Measures []float64
	// Texts[i] is the raw string of text column i.
	Texts []string
}

// Append adds one tuple. Coarser-level coordinates are derived from the
// finest coordinate when read (exact roll-up by integer division).
func (b *Builder) Append(r Row) error {
	if len(r.Coords) != len(b.schema.Dimensions) {
		return fmt.Errorf("table: row has %d coords, schema has %d dimensions",
			len(r.Coords), len(b.schema.Dimensions))
	}
	if len(r.Measures) != len(b.schema.Measures) {
		return fmt.Errorf("table: row has %d measures, schema has %d",
			len(r.Measures), len(b.schema.Measures))
	}
	if len(r.Texts) != len(b.schema.Texts) {
		return fmt.Errorf("table: row has %d texts, schema has %d",
			len(r.Texts), len(b.schema.Texts))
	}
	for d, c := range r.Coords {
		card := b.schema.Dimensions[d].Levels[b.schema.Dimensions[d].Finest()].Cardinality
		if c < 0 || c >= card {
			return fmt.Errorf("table: coord %d out of range [0,%d) for dimension %q",
				c, card, b.schema.Dimensions[d].Name)
		}
		b.dimCoord[d] = append(b.dimCoord[d], uint32(c))
	}
	for m, v := range r.Measures {
		b.measures[m] = append(b.measures[m], v)
	}
	for i, s := range r.Texts {
		id, err := b.textBldr[i].Add(s)
		if err != nil {
			return err
		}
		b.textProv[i] = append(b.textProv[i], id)
	}
	b.rows++
	return nil
}

// Rows returns the number of tuples appended so far.
func (b *Builder) Rows() int { return b.rows }

// Build stores the rows appended so far as a table: each text column gets
// its order-preserving Sorted dictionary and final codes (textDicts), and
// the columns go through FromColumns. The builder stays usable.
func (b *Builder) Build() (*FactTable, error) {
	texts := make([][]uint32, len(b.textProv))
	for i, prov := range b.textProv {
		texts[i] = slices.Clone(prov)
	}
	dicts, err := textDicts(b.schema.Texts, b.textBldr, texts)
	if err != nil {
		return nil, err
	}
	return FromColumns(b.schema, b.dimCoord, b.measures, texts, dicts)
}

// textDicts freezes each text column's dictionary builder into a Sorted
// dictionary and rewrites the column's provisional codes, in place, to
// final ones; nil when the schema has no text columns.
func textDicts(specs []TextSpec, bldrs []*dict.Builder, texts [][]uint32) (*dict.Set, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	ds := dict.NewSet()
	for i, spec := range specs {
		d, remap, err := bldrs[i].Build(dict.KindSorted)
		if err != nil {
			return nil, err
		}
		ds.Put(spec.Name, d)
		for r, prov := range texts[i] {
			texts[i][r] = remap[prov]
		}
	}
	return ds, nil
}

// CoordAt returns the coordinate of row r in dimension d at level l.
func (t *FactTable) CoordAt(r, d, l int) uint32 { return t.levelOf(d, l).at(r) }
