package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybridolap/internal/dict"
)

// TestPlanDifferential is the one table behind "K-member ≡ 1-member ≡
// reference": every case — the BENCH_scan.json shapes, the degenerate
// predicate sets, constants beyond a column's width, each kind of keyed
// member, and predicates, Or-lists, GROUP BY and cell keys on coarse
// levels that the table derives from its finest column (fanouts that shift
// and fanouts that divide, a To past the level's last code or near the top
// of uint32, coarse and finest levels of one dimension in one request) —
// is answered by the one plan (a) alone, (b) as member i, for
// every i, of a K = 8 plan whose other members differ in op, measure,
// intervals, shape and keying, and (c) alone, chained through one state
// across three stripes bound separately; each must equal the row-at-a-time
// reference over the same rows under math.Float64bits — with the code
// columns stored as narrow as they go, and again forced to 16 and to 32
// bits, so every kernel stencil answers every case.
func TestPlanDifferential(t *testing.T) {
	schema := benchSchema()
	schema.Measures = append(schema.Measures, MeasureSpec{Name: "m2"})
	schema.Texts = []TextSpec{{Name: "note"}}
	// Two hierarchies whose coarse levels are derived: fanouts 256 and 32
	// (shifts) over a two-byte finest column, and 100 and 20 (divisions).
	schema.Dimensions = append(schema.Dimensions,
		DimensionSpec{Name: "when", Levels: []LevelSpec{{Name: "year", Cardinality: 4}, {Name: "month", Cardinality: 32}, {Name: "hour", Cardinality: 1024}}},
		DimensionSpec{Name: "where", Levels: []LevelSpec{{Name: "zone", Cardinality: 3}, {Name: "area", Cardinality: 15}, {Name: "site", Cardinality: 300}}},
	)
	const when, where = 3, 4
	pool := make([]string, 300)
	for i := range pool {
		pool[i] = fmt.Sprintf("note-%03d", i)
	}
	gen, err := Generate(GenSpec{Schema: schema, Rows: 3*BatchSize + 213, Seed: 5, TextPools: [][]string{pool}})
	if err != nil {
		t.Fatal(err)
	}
	// The first stripe's rows hold only codes below 200, as if the strings
	// above had first arrived later: built from its own rows that stripe
	// stores the column in one byte, the other two and the whole table in
	// two.
	cuts := [][2]int{{0, 700}, {700, 700 + BatchSize + 1}, {700 + BatchSize + 1, gen.Rows()}}
	note := gen.TextColumn(0).AppendTo(nil)
	for r := range note[:cuts[0][1]] {
		note[r] %= 200
	}
	gen.texts[0] = narrowed(2, note, 1)
	ft := rowsOf(t, gen, 0, gen.Rows())
	var stripes []*FactTable
	for _, cut := range cuts {
		stripes = append(stripes, rowsOf(t, gen, cut[0], cut[1]))
	}
	if w0, w1 := stripes[0].TextColumn(0).Width(), stripes[1].TextColumn(0).Width(); w0 != 1 || w1 != 2 {
		t.Fatalf("text column stored %d and %d bytes wide in stripes 0 and 1, want 1 and 2", w0, w1)
	}

	scalar := func(op AggOp, preds ...RangePredicate) Member {
		return Member{ScanRequest: ScanRequest{Op: op, Measure: 0, Predicates: preds}}
	}
	type planCase struct {
		name string
		m    Member
	}
	cases := []planCase{
		{"sum 3-pred ~10% combined", scalar(AggSum, predsForSelectivity(3, 46)...)},
	}
	for _, op := range []AggOp{AggSum, AggCount, AggMin, AggMax, AggAvg} {
		cases = append(cases, planCase{op.String() + " 1-pred 10%", scalar(op, predsForSelectivity(1, 10)...)})
	}
	for _, w := range []uint32{5, 46, 100} {
		cases = append(cases, planCase{fmt.Sprintf("sum 3-pred %d%%/pred", w), scalar(AggSum, predsForSelectivity(3, w)...)})
	}
	grouped := scalar(AggAvg, predsForSelectivity(2, 46)...)
	grouped.Measure = 1
	byLevel, byText, cells := grouped, grouped, scalar(AggMin, predsForSelectivity(2, 79)...)
	byLevel.GroupBy = []GroupCol{{Dim: 2, Level: 0}, {Dim: 0, Level: 0}}
	byText.GroupBy = []GroupCol{{Text: true, TextIndex: 0}}
	cells.Cells = true
	cases = append(cases,
		planCase{"sum or-list", scalar(AggSum, RangePredicate{Dim: 0, Level: 0, From: 10, To: 19,
			Or: []CodeRange{{From: 40, To: 49}, {From: 70, To: 74}}})},
		planCase{"sum point-list", scalar(AggSum, RangePredicate{Dim: 0, Level: 0, From: 7, To: 7,
			Or: []CodeRange{{From: 21, To: 21}, {From: 56, To: 56}, {From: 83, To: 83}}})},
		planCase{"max no predicate", scalar(AggMax)},
		planCase{"count no predicate grouped by text", Member{ScanRequest: ScanRequest{Op: AggCount}, GroupBy: byText.GroupBy}},
		planCase{"min inverted range", scalar(AggMin, RangePredicate{Dim: 1, Level: 0, From: 8, To: 7})},
		planCase{"sum range across 255|256", scalar(AggSum, RangePredicate{Dim: 0, Level: 0, From: 90, To: 300})},
		planCase{"max range across 65535|65536", scalar(AggMax, RangePredicate{Dim: 0, Level: 0, From: 90, To: 70000})},
		planCase{"count range wholly above 8 bits", scalar(AggCount, RangePredicate{Dim: 2, Level: 0, From: 256, To: 300})},
		planCase{"sum or-list across both widths", scalar(AggSum, RangePredicate{Dim: 1, Level: 0, From: 300, To: 250,
			Or: []CodeRange{{From: 256, To: 70000}, {From: 95, To: 65536}, {From: 3, To: 5}}})},
		planCase{"avg point-list with members above the width", scalar(AggAvg, RangePredicate{Dim: 0, Level: 0, From: 256 + 7, To: 256 + 7,
			Or: []CodeRange{{From: 21, To: 21}, {From: 65536 + 21, To: 65536 + 21}, {From: 83, To: 83}}})},
		planCase{"count text IN with codes first seen in a later stripe", scalar(AggCount, RangePredicate{Text: true, From: 5, To: 5,
			Or: []CodeRange{{From: 150, To: 150}, {From: 270, To: 270}, {From: 299, To: 299}}})},
		planCase{"sum text range across 255|256", scalar(AggSum, RangePredicate{Text: true, From: 180, To: 280})},
		planCase{"avg grouped by two levels", byLevel},
		planCase{"avg grouped by a text column", byText},
		planCase{"min cell-granted", cells},
	)
	coarse := func(dim, level int, from, to uint32, or ...CodeRange) RangePredicate {
		return RangePredicate{Dim: dim, Level: level, From: from, To: to, Or: or}
	}
	byCoarse := scalar(AggAvg, coarse(when, 1, 2, 29), coarse(where, 1, 1, 13))
	byCoarse.GroupBy = []GroupCol{{Dim: when, Level: 1}, {Dim: where, Level: 0}, {Dim: when, Level: 0}}
	byMixed := scalar(AggSum, coarse(where, 0, 0, 1))
	byMixed.GroupBy = []GroupCol{{Dim: where, Level: 1}, {Dim: where, Level: 2}}
	coarseCells := scalar(AggMax, coarse(when, 1, 0, 31), coarse(where, 1, 2, 14))
	coarseCells.Cells = true
	mixedCells := scalar(AggCount, coarse(when, 0, 1, 3), coarse(when, 2, 100, 900))
	mixedCells.Cells = true
	cases = append(cases,
		planCase{"sum coarse range (shift)", scalar(AggSum, coarse(when, 1, 3, 20))},
		planCase{"avg coarse range (division)", scalar(AggAvg, coarse(where, 1, 4, 9))},
		planCase{"count coarse range past the level's last code", scalar(AggCount, coarse(when, 0, 2, 1000))},
		planCase{"min coarse range to the top of uint32", scalar(AggMin, coarse(where, 0, 1, math.MaxUint32))},
		planCase{"max coarse range wholly past the last code", scalar(AggMax, coarse(where, 1, 15, 20))},
		planCase{"sum coarse or-list", scalar(AggSum, coarse(where, 1, 1, 2,
			CodeRange{From: 5, To: 5}, CodeRange{From: 9, To: 14}, CodeRange{From: 13, To: 99}, CodeRange{From: 7, To: 6}))},
		planCase{"avg coarse point-list", scalar(AggAvg, coarse(when, 1, 3, 3,
			CodeRange{From: 7, To: 7}, CodeRange{From: 31, To: 31}, CodeRange{From: 40, To: 40}))},
		planCase{"count coarse or-list past the last code", scalar(AggCount, coarse(when, 0, 9, 12,
			CodeRange{From: 3, To: math.MaxUint32}))},
		planCase{"sum coarse and finest of one dimension", scalar(AggSum,
			coarse(when, 0, 1, 2), coarse(when, 2, 300, 900), coarse(where, 2, 50, 280), coarse(where, 0, 0, 1))},
		planCase{"min coarse, coarser and finest of one dimension", scalar(AggMin,
			coarse(where, 0, 1, 2), coarse(where, 1, 4, 12, CodeRange{From: 0, To: 0}), coarse(where, 2, 0, 250))},
		planCase{"avg grouped by coarse levels", byCoarse},
		planCase{"sum grouped by coarse and finest of one dimension", byMixed},
		planCase{"max cell-granted on coarse levels", coarseCells},
		planCase{"count cell-granted on coarse and finest of one dimension", mixedCells},
	)

	// reference answers m alone, row at a time. A cell member's cells are
	// a GROUP BY of its predicate columns in canonical order.
	reference := func(m Member, keyed bool) State {
		t.Helper()
		if !keyed {
			r, err := ScanRange(ft, m.ScanRequest, 0, ft.Rows())
			if err != nil {
				t.Fatal(err)
			}
			return State{Scalar: r}
		}
		by := m.GroupBy
		if len(by) == 0 {
			for _, pi := range CanonicalPredOrder(m.Predicates, nil) {
				by = append(by, GroupCol{Dim: m.Predicates[pi].Dim, Level: m.Predicates[pi].Level})
			}
		}
		g, err := GroupScanRange(ft, GroupScanRequest{ScanRequest: m.ScanRequest, GroupBy: by}, 0, ft.Rows())
		if err != nil {
			t.Fatal(err)
		}
		return State{Groups: g}
	}
	sameBits := func(a, b ScanResult) bool {
		return a.Rows == b.Rows && math.Float64bits(a.Value) == math.Float64bits(b.Value)
	}
	check := func(what string, got, want State) {
		t.Helper()
		ok := sameBits(got.Scalar, want.Scalar) && len(got.Groups) == len(want.Groups)
		for k, w := range want.Groups {
			g, found := got.Groups[k]
			ok = ok && found && sameBits(g, w)
		}
		if !ok {
			t.Fatalf("%s:\nplan=%+v\nref =%+v", what, got, want)
		}
	}

	rng := rand.New(rand.NewSource(8))
	for _, c := range cases {
		keyed := bind1(t, ft, c.m).Keyed(0)
		if keyed != (len(c.m.GroupBy) > 0 || c.m.Cells) {
			t.Fatalf("%s: Keyed=%v", c.name, keyed)
		}
		want := reference(c.m, keyed)

		for _, bits := range []int{8, 16, 32} {
			name := fmt.Sprintf("%s, codes >= %d bits", c.name, bits)
			ftw := atWidth(ft, bits/8)

			// (a) alone.
			got, err := rangeFrom(bind1(t, ftw, c.m), State{}, 0, ftw.Rows())
			if err != nil {
				t.Fatal(err)
			}
			check(name+" alone", got, want)

			// (b) as member i of a K = 8 plan over the same columns.
			for i := 0; i < 8; i++ {
				members := make([]Member, 8)
				for mi := range members {
					if mi == i {
						members[mi] = c.m
						continue
					}
					o := Member{ScanRequest: ScanRequest{Op: AggOp(rng.Intn(5)), Measure: rng.Intn(2)}}
					for _, p := range c.m.Predicates {
						card := benchCard
						if !p.Text {
							card = schema.LevelCardinality(p.Dim, p.Level)
						}
						o.Predicates = append(o.Predicates, randPredOn(rng, fusedCol{text: p.Text, dim: p.Dim, level: p.Level, card: card}))
					}
					rng.Shuffle(len(o.Predicates), func(a, b int) {
						o.Predicates[a], o.Predicates[b] = o.Predicates[b], o.Predicates[a]
					})
					switch rng.Intn(4) {
					case 0:
						o.Cells = true
					case 1:
						o.GroupBy = []GroupCol{{Dim: rng.Intn(3), Level: 0}}
					}
					members[mi] = o
				}
				pl, err := Bind(ftw, members)
				if err != nil {
					t.Fatal(err)
				}
				states := make([]State, len(members))
				if err := pl.RangeInto(0, ftw.Rows(), states); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s as member %d of 8", name, i), states[i], want)
			}

			// (c) chained through one state across three stripes.
			got = State{}
			for _, s := range stripes {
				s = atWidth(s, bits/8)
				if got, err = rangeFrom(bind1(t, s, c.m), got, 0, s.Rows()); err != nil {
					t.Fatal(err)
				}
			}
			check(name+" across three stripes", got, want)
		}
	}
}

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
		}, [][]uint32{{0}}, [][]float64{{1}}, [][]uint32{{0}}, dicts)
		if err != nil {
			t.Fatal(err)
		}
		count := ScanRequest{Op: AggCount}
		for name, m := range map[string]Member{
			"dimension level": {ScanRequest: count, GroupBy: []GroupCol{{Dim: 0, Level: 0}}},
			"text column":     {ScanRequest: count, GroupBy: []GroupCol{{Text: true, TextIndex: 0}}},
		} {
			_, bindErr := Bind(ft, []Member{m})
			_, refErr := GroupScanRange(ft, GroupScanRequest{ScanRequest: count, GroupBy: m.GroupBy}, 0, ft.Rows())
			if (bindErr == nil) != tc.fits || (refErr == nil) != tc.fits {
				t.Errorf("group by a %s of %d codes: Bind err %v, GroupScanRange err %v; want fits=%v",
					name, tc.codes, bindErr, refErr, tc.fits)
			}
		}
		cell := Member{Cells: true, ScanRequest: ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 3}}}}
		if got := bind1(t, ft, cell).Keyed(0); got != tc.fits {
			t.Errorf("cells on a level of %d codes: Keyed=%v want %v", tc.codes, got, tc.fits)
		}
	}
}
