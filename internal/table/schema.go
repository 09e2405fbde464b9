// Package table implements the columnar fact table the GPU side of the
// hybrid OLAP system operates on (paper Fig. 6): a 1-D array memory
// structure "placing all columns of the table one after another", holding
//
//   - dimension columns — one integer column per dimension, its finest
//     level's coordinates, used for filtration during query processing;
//   - data columns — the measures that get aggregated;
//   - text columns — dictionary-encoded to integer codes so no string ever
//     reaches GPU memory (Sec. III-F).
//
// A coarser level of a dimension hierarchy (e.g. year → month → day → hour)
// is not stored: its code is the finest code divided by the level's fanout,
// so a condition C_L(f, t, l_K) on any level reads the dimension's one
// column, bound to the finest codes [f, t] covers. The cost model keeps the
// paper's count — one column per condition (eq. 12), every (dimension,
// level) pair in C_TOTAL (eq. 13) — so its estimates do not depend on this
// storage choice.
package table

import (
	"fmt"

	"hybridolap/internal/dict"
)

// LevelSpec describes one resolution level of a dimension hierarchy.
// Cardinality is the number of distinct coordinates at this level; levels
// must be ordered coarse → fine with nondecreasing cardinality, and each
// finer cardinality must be a multiple of its parent so that roll-ups are
// exact (a month always belongs to exactly one year).
type LevelSpec struct {
	Name        string
	Cardinality int
}

// DimensionSpec describes a dimension and its hierarchy of levels.
type DimensionSpec struct {
	Name   string
	Levels []LevelSpec
}

// Finest returns the index of the finest (last) level.
func (d DimensionSpec) Finest() int { return len(d.Levels) - 1 }

// MeasureSpec describes one data (measure) column.
type MeasureSpec struct {
	Name string
}

// TextSpec describes one dictionary-encoded text column.
type TextSpec struct {
	Name string
}

// Schema is the static description of a fact table.
type Schema struct {
	Dimensions []DimensionSpec
	Measures   []MeasureSpec
	Texts      []TextSpec
}

// Validate checks the structural invariants the rest of the system relies
// on: nonempty hierarchies, positive cardinalities, coarse→fine ordering
// with exact multiples, and unique names.
func (s *Schema) Validate() error {
	if len(s.Dimensions) == 0 {
		return fmt.Errorf("table: schema needs at least one dimension")
	}
	names := make(map[string]bool)
	claim := func(n string) error {
		if n == "" {
			return fmt.Errorf("table: empty column name")
		}
		if names[n] {
			return fmt.Errorf("table: duplicate name %q", n)
		}
		names[n] = true
		return nil
	}
	for _, d := range s.Dimensions {
		if err := claim(d.Name); err != nil {
			return err
		}
		if len(d.Levels) == 0 {
			return fmt.Errorf("table: dimension %q has no levels", d.Name)
		}
		prev := 0
		for i, l := range d.Levels {
			if err := claim(d.Name + "." + l.Name); err != nil {
				return err
			}
			if l.Cardinality <= 0 {
				return fmt.Errorf("table: dimension %q level %q has cardinality %d",
					d.Name, l.Name, l.Cardinality)
			}
			if i > 0 {
				if l.Cardinality < prev {
					return fmt.Errorf("table: dimension %q levels must be coarse to fine", d.Name)
				}
				if l.Cardinality%prev != 0 {
					return fmt.Errorf("table: dimension %q level %q cardinality %d is not a multiple of parent %d",
						d.Name, l.Name, l.Cardinality, prev)
				}
			}
			prev = l.Cardinality
		}
	}
	for _, m := range s.Measures {
		if err := claim(m.Name); err != nil {
			return err
		}
	}
	for _, t := range s.Texts {
		if err := claim(t.Name); err != nil {
			return err
		}
	}
	return nil
}

// NumDimensionColumns returns the total number of (dimension, level)
// columns: the filtration columns of the paper's model.
func (s *Schema) NumDimensionColumns() int {
	n := 0
	for _, d := range s.Dimensions {
		n += len(d.Levels)
	}
	return n
}

// TotalColumns is C_TOTAL in eq. (13): every column the table stores.
func (s *Schema) TotalColumns() int {
	return s.NumDimensionColumns() + len(s.Measures) + len(s.Texts)
}

// DimIndex returns the index of the named dimension, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dimensions {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// MeasureIndex returns the index of the named measure, or -1.
func (s *Schema) MeasureIndex(name string) int {
	for i, m := range s.Measures {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// TextIndex returns the index of the named text column, or -1.
func (s *Schema) TextIndex(name string) int {
	for i, t := range s.Texts {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// LevelCardinality returns the cardinality of dimension dim at level lvl.
func (s *Schema) LevelCardinality(dim, lvl int) int {
	return s.Dimensions[dim].Levels[lvl].Cardinality
}

// reexport so callers of table don't need to import dict for the common case.
type Dictionaries = dict.Set
