package cube

import (
	"fmt"

	"hybridolap/internal/table"
)

// GroupSpec maps the cube's own coordinates in one dimension onto group
// coordinates: Ratio cube cells collapse into one group (Ratio = cube
// cardinality / group-level cardinality, exact by the schema invariant).
type GroupSpec struct {
	Dim   int
	Ratio uint32
}

// AggregateGroups folds every cell of the box into per-group aggregates,
// keyed by table.PackKey over the group coordinates in spec order. It is
// Aggregate's driver with a group key: each worker accumulates a private
// map and the maps merge in worker order.
func (c *Cube) AggregateGroups(box Box, specs []GroupSpec, workers int) (map[table.GroupKey]Agg, error) {
	if len(specs) == 0 || len(specs) > table.MaxGroupCols {
		return nil, fmt.Errorf("cube: need 1..%d group specs, got %d", table.MaxGroupCols, len(specs))
	}
	for _, sp := range specs {
		if sp.Dim < 0 || sp.Dim >= len(c.cards) {
			return nil, fmt.Errorf("cube: group dimension %d out of range", sp.Dim)
		}
		if sp.Ratio == 0 {
			return nil, fmt.Errorf("cube: zero group ratio")
		}
		if groups := (uint32(c.cards[sp.Dim]) + sp.Ratio - 1) / sp.Ratio; groups > 0x10000 {
			return nil, fmt.Errorf("cube: %d groups in dimension %d exceeds 65536", groups, sp.Dim)
		}
	}
	f, err := c.fold(box, specs, workers)
	return f.groups, err
}

// GroupLevel names a grouping column at the query level: dimension Dim
// grouped at hierarchy level Level.
type GroupLevel struct {
	Dim, Level int
}

// AggregateGroups answers a grouped query from the set: box is at
// resolution r; the picked cube level must also be at least as fine as
// every group level. Keys are coordinates at each group's own level, in
// group order.
func (s *Set) AggregateGroups(box Box, r int, groups []GroupLevel, workers int) (map[table.GroupKey]Agg, error) {
	need := r
	for _, g := range groups {
		need = max(need, g.Level)
	}
	c, eb, err := s.pick(box, r, need)
	if err != nil {
		return nil, err
	}
	specs := make([]GroupSpec, len(groups))
	for i, g := range groups {
		if g.Dim < 0 || g.Dim >= len(s.schema.Dimensions) {
			return nil, fmt.Errorf("cube: group dimension %d out of range", g.Dim)
		}
		specs[i] = GroupSpec{Dim: g.Dim, Ratio: s.ratio(g.Dim, g.Level, c.Level())}
	}
	return c.AggregateGroups(eb, specs, workers)
}
