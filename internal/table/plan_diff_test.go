package table

import (
	"fmt"
	"testing"

	"hybridolap/internal/dict"
)

// TestGroupKeyBudget pins the one 16-bit key budget: a column of up to
// 65 536 distinct codes packs into a GroupKey component, a dimension level
// and a text column alike, whether it is a GROUP BY column or a cell
// coordinate.
func TestGroupKeyBudget(t *testing.T) {
	for _, tc := range []struct {
		codes int
		fits  bool
	}{{0xFFFF, true}, {0x10000, true}, {0x10001, false}} {
		if fitsGroupKey(tc.codes) != tc.fits {
			t.Errorf("fitsGroupKey(%d) = %v", tc.codes, !tc.fits)
		}
		pool := make([]string, tc.codes)
		for i := range pool {
			pool[i] = fmt.Sprintf("s%05x", i)
		}
		d, err := dict.NewHash(pool) // fixed-width hex: sorted, unique
		if err != nil {
			t.Fatal(err)
		}
		dicts := dict.NewSet()
		dicts.Put("s", d)
		ft, err := FromColumns(Schema{
			Dimensions: []DimensionSpec{{Name: "d", Levels: []LevelSpec{{Name: "l", Cardinality: tc.codes}}}},
			Measures:   []MeasureSpec{{Name: "m"}},
			Texts:      []TextSpec{{Name: "s"}},
		}, [][]uint32{{0}}, [][]int32{{1}}, [][]uint32{{0}}, dicts)
		if err != nil {
			t.Fatal(err)
		}
		count := ScanRequest{Op: AggCount}
		for name, m := range map[string]Member{
			"dimension level": {ScanRequest: count, GroupBy: []GroupCol{{Dim: 0, Level: 0}}},
			"text column":     {ScanRequest: count, GroupBy: []GroupCol{{Text: true, TextIndex: 0}}},
		} {
			if _, err := Bind(ft, []Member{m}); (err == nil) != tc.fits {
				t.Errorf("group by a %s of %d codes: Bind err %v; want fits=%v", name, tc.codes, err, tc.fits)
			}
		}
		cell := Member{Cells: true, ScanRequest: ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 3}}}}
		if got := bind1(t, ft, cell).Keyed(0); got != tc.fits {
			t.Errorf("cells on a level of %d codes: Keyed=%v want %v", tc.codes, got, tc.fits)
		}
	}
}
