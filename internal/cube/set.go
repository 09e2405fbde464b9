package cube

import (
	"fmt"
	"sort"

	"hybridolap/internal/table"
)

// Set is the multi-resolution cube store of the paper's Fig. 1: "one OLAP
// system can have multiple pre-calculated cubes with different
// resolutions". The CPU answers a query needing resolution R from the
// *coarsest* pre-calculated cube whose level is ≥ R, because "it is always
// desirable to respond to the query using a cube with lowest possible
// resolution to minimize memory accesses" (Sec. III-C). Queries needing a
// resolution finer than any stored cube must go to the GPU.
//
// A level may be registered as *virtual*: present for size estimation and
// scheduling (the system model's ~32 GB cube) without materialised cells.
// Aggregating on a virtual level fails; the system model never does,
// because it only consumes service-time estimates.
type Set struct {
	schema  *table.Schema
	measure int // fact-table measure index every cube aggregates
	cubes   map[int]*Cube
	virtual map[int]bool
	levels  []int // sorted union of real and virtual levels
}

// NewSet creates an empty set over a schema.
func NewSet(schema *table.Schema) *Set {
	return &Set{schema: schema, cubes: make(map[int]*Cube), virtual: make(map[int]bool)}
}

// Schema returns the schema the set's cubes are defined over.
func (s *Set) Schema() *table.Schema { return s.schema }

// Measure returns the fact-table measure index the set's cubes aggregate.
// Queries over a different measure cannot be answered from these cubes and
// must go to the GPU.
func (s *Set) Measure() int { return s.measure }

func (s *Set) noteLevel(l int) {
	for _, x := range s.levels {
		if x == l {
			return
		}
	}
	s.levels = append(s.levels, l)
	sort.Ints(s.levels)
}

// Add registers a materialised cube. Its geometry must match the schema at
// its level. Adding a real cube at a virtual level upgrades the level.
func (s *Set) Add(c *Cube) error {
	want := levelCards(s.schema, c.Level())
	got := c.Cards()
	if len(got) != len(want) {
		return fmt.Errorf("cube: set/schema dimension mismatch (%d vs %d)", len(got), len(want))
	}
	for d := range want {
		if got[d] != want[d] {
			return fmt.Errorf("cube: level %d cardinality mismatch in dimension %d (%d vs %d)",
				c.Level(), d, got[d], want[d])
		}
	}
	if len(s.cubes) == 0 {
		s.measure = c.Measure()
	} else if c.Measure() != s.measure {
		return fmt.Errorf("cube: set aggregates measure %d, cube aggregates %d", s.measure, c.Measure())
	}
	s.cubes[c.Level()] = c
	delete(s.virtual, c.Level())
	s.noteLevel(c.Level())
	return nil
}

// AddVirtual registers a level for estimation only. It is a no-op when a
// real cube already exists at that level.
func (s *Set) AddVirtual(level int) error {
	if level < 0 {
		return fmt.Errorf("cube: negative virtual level %d", level)
	}
	if _, ok := s.cubes[level]; ok {
		return nil
	}
	s.virtual[level] = true
	s.noteLevel(level)
	return nil
}

// Levels returns the registered levels (real and virtual) in increasing
// order.
func (s *Set) Levels() []int { return append([]int(nil), s.levels...) }

// IsVirtual reports whether a level is registered without cells.
func (s *Set) IsVirtual(level int) bool { return s.virtual[level] }

// Get returns the materialised cube at an exact level.
func (s *Set) Get(level int) (*Cube, bool) {
	c, ok := s.cubes[level]
	return c, ok
}

// PickLevel returns the coarsest registered level able to answer a query
// of resolution r — the minimum stored level ≥ r. ok is false when the
// query is too fine for every registered level (it must go to the GPU).
func (s *Set) PickLevel(r int) (int, bool) {
	for _, l := range s.levels {
		if l >= r {
			return l, true
		}
	}
	return 0, false
}

// ExpandBox rewrites a box expressed at query resolution fromLevel into
// coordinates at toLevel (≥ fromLevel). The schema's exact-multiple
// hierarchy makes the rewrite lossless.
func (s *Set) ExpandBox(box Box, fromLevel, toLevel int) (Box, error) {
	if len(box) != len(s.schema.Dimensions) {
		return nil, fmt.Errorf("cube: box has %d dims, schema %d", len(box), len(s.schema.Dimensions))
	}
	if toLevel < fromLevel {
		return nil, fmt.Errorf("cube: cannot answer level-%d query at coarser level %d", fromLevel, toLevel)
	}
	out := make(Box, len(box))
	for d := range out {
		ratio := s.ratio(d, fromLevel, toLevel)
		out[d] = Range{From: box[d].From * ratio, To: (box[d].To+1)*ratio - 1}
	}
	return out, nil
}

// ratio is how many toLevel coordinates of dimension d one fromLevel
// coordinate spans; both levels clamp at the dimension's finest.
func (s *Set) ratio(d, fromLevel, toLevel int) uint32 {
	dim := &s.schema.Dimensions[d]
	fl, tl := min(fromLevel, dim.Finest()), min(toLevel, dim.Finest())
	return uint32(dim.Levels[tl].Cardinality / dim.Levels[fl].Cardinality)
}

// SubCubeBytes estimates the sub-cube size (eq. 3) a query at resolution r
// with the given box would stream from the picked level. ok is false when
// no registered level can answer it. Works for virtual levels: only
// geometry is consulted.
func (s *Set) SubCubeBytes(box Box, r int) (int64, bool) {
	l, ok := s.PickLevel(r)
	if !ok {
		return 0, false
	}
	eb, err := s.ExpandBox(box, r, l)
	if err != nil {
		return 0, false
	}
	return eb.Bytes(), true
}

// Aggregate answers a query: box is at resolution r; the set picks the
// coarsest adequate level, expands the box, and runs the (possibly
// parallel) aggregation. It fails when the picked level is virtual. The
// chosen cube is returned for telemetry.
func (s *Set) Aggregate(box Box, r, workers int) (Agg, *Cube, error) {
	c, eb, err := s.pick(box, r, r)
	if err != nil {
		return Agg{}, nil, err
	}
	agg, err := c.Aggregate(eb, workers)
	if err != nil {
		return Agg{}, nil, err
	}
	return agg, c, nil
}

// pick returns the stored cube at the coarsest level >= need and the box,
// given at resolution r, expanded into that cube's coordinates.
func (s *Set) pick(box Box, r, need int) (*Cube, Box, error) {
	l, ok := s.PickLevel(need)
	if !ok {
		return nil, nil, fmt.Errorf("cube: no stored cube at level >= %d", need)
	}
	c, ok := s.cubes[l]
	if !ok {
		return nil, nil, fmt.Errorf("cube: level %d is virtual (estimation only)", l)
	}
	eb, err := s.ExpandBox(box, r, l)
	if err != nil {
		return nil, nil, err
	}
	return c, eb, nil
}

// TotalStorageBytes sums the in-memory footprint of all materialised cubes
// — the quantity bounded by main-memory size in Fig. 1 (level M).
func (s *Set) TotalStorageBytes() int64 {
	var n int64
	for _, c := range s.cubes {
		n += c.StorageBytes()
	}
	return n
}

// LogicalBytesAt returns the uncompressed cube size at a level (real or
// virtual): the product of the level's cardinalities times CellSize.
func (s *Set) LogicalBytesAt(level int) int64 {
	n := int64(CellSize)
	for _, card := range levelCards(s.schema, level) {
		n *= int64(card)
	}
	return n
}

// BuildSet pre-calculates cubes at the given levels from a fact table,
// mirroring the paper's evaluation setup ("the CPU has 4 pre-calculated
// OLAP cubes"). All cubes aggregate the same measure.
func BuildSet(ft *table.FactTable, levels []int, measure int, cfg Config) (*Set, error) {
	s := NewSet(ft.Schema())
	for _, l := range levels {
		c, err := BuildFromTable(ft, l, measure, cfg)
		if err != nil {
			return nil, err
		}
		if err := s.Add(c); err != nil {
			return nil, err
		}
	}
	return s, nil
}
