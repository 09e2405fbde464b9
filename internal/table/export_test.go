package table

// Hooks for the external tests (package table_test): the plan's
// differentials and kernel benchmarks compare it with internal/oracle,
// which imports this package, so they cannot live inside it.

var (
	AtWidth    = atWidth
	RowsOf     = rowsOf
	DiffSchema = diffSchema
	DiffTables = diffTables
	Bind1      = bind1
	RangeFrom  = rangeFrom
)

// RangeBatch is RangeInto at an explicit batch size.
func (pl *Plan) RangeBatch(lo, hi int, states []State, batch int) error {
	return pl.rangeBatch(lo, hi, states, batch)
}

// WithTextCodes returns a copy of ft whose text column i holds codes,
// stored width bytes wide.
func WithTextCodes(ft *FactTable, i int, codes []uint32, width int) *FactTable {
	out := *ft
	out.texts = append([]Codes(nil), ft.texts...)
	out.texts[i] = narrowed(width, codes, 1)
	return &out
}
