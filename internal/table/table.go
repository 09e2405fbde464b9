package table

import "hybridolap/internal/dict"

// FactTable is an immutable columnar fact table. Each dimension stores one
// Codes column, its finest level's coordinates, and each text column one
// of dictionary codes — integer codes in the 8, 16 or 32 bits the
// cardinality needs; measures are int32 decimal units (MeasureSpec.Scale).
// A coarser level is not stored:
// its code is the finest code divided by the level's fanout, so a plan
// binds a coarse predicate to the finest codes it covers and divides
// group and cell keys (levelOf). Columns are contiguous slices — the 1-D
// per-column layout the paper uses for maximum GPU memory bandwidth.
type FactTable struct {
	schema Schema
	rows   int

	// dims[d] is the finest-level code column of dimension d.
	dims     []Codes
	measures [][]int32
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

// MeasureColumn returns the data column of measure m, in units of
// 10^-scale.
func (t *FactTable) MeasureColumn(m int) []int32 { return t.measures[m] }

// TextColumn returns the encoded codes of text column i.
func (t *FactTable) TextColumn(i int) Codes { return t.texts[i] }

// SizeBytes returns the bytes the columns actually store: each code
// column at its own width and 4 per measure cell. This is the table
// footprint that must fit in the simulated GPU's global memory, and what a
// compaction or a shard repair moves.
func (t *FactTable) SizeBytes() int64 {
	n := int64(len(t.measures)) * int64(t.rows) * 4
	for _, col := range t.dims {
		n += col.sizeBytes()
	}
	for _, col := range t.texts {
		n += col.sizeBytes()
	}
	return n
}

// Row is one input tuple: what an ingest batch carries.
type Row struct {
	// Coords[d] is the coordinate in dimension d at its finest level.
	Coords []int
	// Measures[m] is the value of measure m: a whole number of its
	// 10^-scale units (Units), or the row is rejected.
	Measures []float64
	// Texts[i] is the raw string of text column i.
	Texts []string
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
