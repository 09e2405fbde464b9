package table

import (
	"fmt"
	"io"

	"hybridolap/internal/binio"
	"hybridolap/internal/dict"
)

// Persistence format: magic, version, schema, then per-dimension finest
// coordinates (the one column a dimension stores; coarser levels are
// derived from it), measures, and per-text-column dictionary entries plus
// code columns. Codes are 32 bits on disk whatever their width in memory:
// Save widens, Load validates and then narrows. A trailing CRC-32 guards
// the whole payload.
const (
	tableMagic   = "HOLT"
	tableVersion = 1
	// maxPersistRows bounds length prefixes while decoding.
	maxPersistRows = 1 << 31
)

// Save writes the fact table to w.
func (t *FactTable) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.String(tableMagic)
	bw.U16(tableVersion)

	// Schema.
	s := &t.schema
	bw.U32(uint32(len(s.Dimensions)))
	for _, d := range s.Dimensions {
		bw.String(d.Name)
		bw.U32(uint32(len(d.Levels)))
		for _, l := range d.Levels {
			bw.String(l.Name)
			bw.U64(uint64(l.Cardinality))
		}
	}
	bw.U32(uint32(len(s.Measures)))
	for _, m := range s.Measures {
		bw.String(m.Name)
	}
	bw.U32(uint32(len(s.Texts)))
	for _, tc := range s.Texts {
		bw.String(tc.Name)
	}

	bw.U64(uint64(t.rows))
	// Finest-level coordinates per dimension.
	for d := range s.Dimensions {
		bw.U32s(t.dims[d].AppendTo(make([]uint32, 0, t.rows)))
	}
	for m := range s.Measures {
		bw.F64s(t.measures[m])
	}
	for i, tc := range s.Texts {
		d, ok := t.dicts.Get(tc.Name)
		if !ok {
			return fmt.Errorf("table: missing dictionary for %q", tc.Name)
		}
		bw.U64(uint64(d.Len()))
		for id := 0; id < d.Len(); id++ {
			str, _ := d.Decode(dict.ID(id))
			bw.String(str)
		}
		bw.U32s(t.texts[i].AppendTo(make([]uint32, 0, t.rows)))
	}
	return bw.Sum()
}

// Load reads a fact table written by Save.
func Load(r io.Reader) (*FactTable, error) {
	br := binio.NewReader(r)
	if magic := br.String(); magic != tableMagic {
		if br.Err() != nil {
			return nil, br.Err()
		}
		return nil, fmt.Errorf("table: bad magic %q", magic)
	}
	if v := br.U16(); v != tableVersion {
		if br.Err() != nil {
			return nil, br.Err()
		}
		return nil, fmt.Errorf("table: unsupported version %d", v)
	}

	var s Schema
	nd := int(br.U32())
	if br.Err() != nil {
		return nil, br.Err()
	}
	if nd > 64 {
		return nil, fmt.Errorf("table: %d dimensions exceeds limit", nd)
	}
	for i := 0; i < nd; i++ {
		var d DimensionSpec
		d.Name = br.String()
		nl := int(br.U32())
		if br.Err() != nil {
			return nil, br.Err()
		}
		if nl > 64 {
			return nil, fmt.Errorf("table: %d levels exceeds limit", nl)
		}
		for j := 0; j < nl; j++ {
			d.Levels = append(d.Levels, LevelSpec{
				Name:        br.String(),
				Cardinality: int(br.U64()),
			})
		}
		s.Dimensions = append(s.Dimensions, d)
	}
	nm := int(br.U32())
	if br.Err() != nil {
		return nil, br.Err()
	}
	if nm > 1024 {
		return nil, fmt.Errorf("table: %d measures exceeds limit", nm)
	}
	for i := 0; i < nm; i++ {
		s.Measures = append(s.Measures, MeasureSpec{Name: br.String()})
	}
	nt := int(br.U32())
	if br.Err() != nil {
		return nil, br.Err()
	}
	if nt > 1024 {
		return nil, fmt.Errorf("table: %d text columns exceeds limit", nt)
	}
	for i := 0; i < nt; i++ {
		s.Texts = append(s.Texts, TextSpec{Name: br.String()})
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("table: loaded schema invalid: %w", err)
	}

	rows := int(br.U64())
	if br.Err() != nil {
		return nil, br.Err()
	}
	if rows < 0 || rows > maxPersistRows {
		return nil, fmt.Errorf("table: row count %d out of range", rows)
	}

	t := &FactTable{schema: s, rows: rows}
	t.dims = make([]Codes, nd)
	for d, dim := range s.Dimensions {
		coords := br.U32s(rows)
		if br.Err() != nil {
			return nil, br.Err()
		}
		if len(coords) != rows {
			return nil, fmt.Errorf("table: dimension %q has %d coords for %d rows", dim.Name, len(coords), rows)
		}
		col, err := finestColumn(dim, coords)
		if err != nil {
			return nil, err
		}
		t.dims[d] = col
	}
	t.measures = make([][]float64, nm)
	for m := 0; m < nm; m++ {
		t.measures[m] = br.F64s(rows)
		if br.Err() != nil {
			return nil, br.Err()
		}
		if len(t.measures[m]) != rows {
			return nil, fmt.Errorf("table: measure %d has %d values for %d rows", m, len(t.measures[m]), rows)
		}
	}
	if nt > 0 {
		t.dicts = dict.NewSet()
		t.texts = make([]Codes, nt)
		for i := 0; i < nt; i++ {
			dl := int(br.U64())
			if br.Err() != nil {
				return nil, br.Err()
			}
			if dl < 0 || dl > maxPersistRows {
				return nil, fmt.Errorf("table: dictionary length %d out of range", dl)
			}
			entries := make([]string, dl)
			for j := range entries {
				entries[j] = br.String()
			}
			if br.Err() != nil {
				return nil, br.Err()
			}
			d, err := dict.NewSorted(entries)
			if err != nil {
				return nil, fmt.Errorf("table: dictionary for %q: %w", s.Texts[i].Name, err)
			}
			t.dicts.Put(s.Texts[i].Name, d)
			codes := br.U32s(rows)
			if br.Err() != nil {
				return nil, br.Err()
			}
			if len(codes) != rows {
				return nil, fmt.Errorf("table: text column %q has %d codes for %d rows", s.Texts[i].Name, len(codes), rows)
			}
			if t.texts[i], err = textColumn(s.Texts[i].Name, codes, dl); err != nil {
				return nil, err
			}
		}
	}
	if err := br.CheckSum(); err != nil {
		return nil, err
	}
	return t, nil
}
