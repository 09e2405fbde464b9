package table_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybridolap/internal/dict"
	"hybridolap/internal/oracle"
	"hybridolap/internal/table"
)

// The plan's differentials: every member of a bound plan — alone, as one
// of K, chained across stripes, at every code width — must agree
// *exactly* (bit-identical values, not epsilon-close) with the
// row-at-a-time oracle running that member alone over the same rows.
// They live outside package table because internal/oracle imports it.

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
	schema.Measures = append(schema.Measures, table.MeasureSpec{Name: "m2"})
	schema.Texts = []table.TextSpec{{Name: "note"}}
	// Two hierarchies whose coarse levels are derived: fanouts 256 and 32
	// (shifts) over a two-byte finest column, and 100 and 20 (divisions).
	schema.Dimensions = append(schema.Dimensions,
		table.DimensionSpec{Name: "when", Levels: []table.LevelSpec{{Name: "year", Cardinality: 4}, {Name: "month", Cardinality: 32}, {Name: "hour", Cardinality: 1024}}},
		table.DimensionSpec{Name: "where", Levels: []table.LevelSpec{{Name: "zone", Cardinality: 3}, {Name: "area", Cardinality: 15}, {Name: "site", Cardinality: 300}}},
	)
	const when, where = 3, 4
	pool := make([]string, 300)
	for i := range pool {
		pool[i] = fmt.Sprintf("note-%03d", i)
	}
	gen, err := table.Generate(table.GenSpec{Schema: schema, Rows: 3*table.BatchSize + 213, Seed: 5, TextPools: [][]string{pool}})
	if err != nil {
		t.Fatal(err)
	}
	// The first stripe's rows hold only codes below 200, as if the strings
	// above had first arrived later: built from its own rows that stripe
	// stores the column in one byte, the other two and the whole table in
	// two.
	cuts := [][2]int{{0, 700}, {700, 700 + table.BatchSize + 1}, {700 + table.BatchSize + 1, gen.Rows()}}
	note := gen.TextColumn(0).AppendTo(nil)
	for r := range note[:cuts[0][1]] {
		note[r] %= 200
	}
	gen = table.WithTextCodes(gen, 0, note, 2)
	ft := table.RowsOf(t, gen, 0, gen.Rows())
	var stripes []*table.FactTable
	for _, cut := range cuts {
		stripes = append(stripes, table.RowsOf(t, gen, cut[0], cut[1]))
	}
	if w0, w1 := stripes[0].TextColumn(0).Width(), stripes[1].TextColumn(0).Width(); w0 != 1 || w1 != 2 {
		t.Fatalf("text column stored %d and %d bytes wide in stripes 0 and 1, want 1 and 2", w0, w1)
	}

	scalar := func(op table.AggOp, preds ...table.RangePredicate) table.Member {
		return table.Member{ScanRequest: table.ScanRequest{Op: op, Measure: 0, Predicates: preds}}
	}
	type planCase struct {
		name string
		m    table.Member
	}
	cases := []planCase{
		{"sum 3-pred ~10% combined", scalar(table.AggSum, predsForSelectivity(3, 46)...)},
	}
	for _, op := range []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg} {
		cases = append(cases, planCase{op.String() + " 1-pred 10%", scalar(op, predsForSelectivity(1, 10)...)})
	}
	for _, w := range []uint32{5, 46, 100} {
		cases = append(cases, planCase{fmt.Sprintf("sum 3-pred %d%%/pred", w), scalar(table.AggSum, predsForSelectivity(3, w)...)})
	}
	grouped := scalar(table.AggAvg, predsForSelectivity(2, 46)...)
	grouped.Measure = 1
	byLevel, byText, cells := grouped, grouped, scalar(table.AggMin, predsForSelectivity(2, 79)...)
	byLevel.GroupBy = []table.GroupCol{{Dim: 2, Level: 0}, {Dim: 0, Level: 0}}
	byText.GroupBy = []table.GroupCol{{Text: true, TextIndex: 0}}
	cells.Cells = true
	cases = append(cases,
		planCase{"sum or-list", scalar(table.AggSum, table.RangePredicate{Dim: 0, Level: 0, From: 10, To: 19,
			Or: []table.CodeRange{{From: 40, To: 49}, {From: 70, To: 74}}})},
		planCase{"sum point-list", scalar(table.AggSum, table.RangePredicate{Dim: 0, Level: 0, From: 7, To: 7,
			Or: []table.CodeRange{{From: 21, To: 21}, {From: 56, To: 56}, {From: 83, To: 83}}})},
		planCase{"max no predicate", scalar(table.AggMax)},
		planCase{"count no predicate grouped by text", table.Member{ScanRequest: table.ScanRequest{Op: table.AggCount}, GroupBy: byText.GroupBy}},
		planCase{"min inverted range", scalar(table.AggMin, table.RangePredicate{Dim: 1, Level: 0, From: 8, To: 7})},
		planCase{"sum range across 255|256", scalar(table.AggSum, table.RangePredicate{Dim: 0, Level: 0, From: 90, To: 300})},
		planCase{"max range across 65535|65536", scalar(table.AggMax, table.RangePredicate{Dim: 0, Level: 0, From: 90, To: 70000})},
		planCase{"count range wholly above 8 bits", scalar(table.AggCount, table.RangePredicate{Dim: 2, Level: 0, From: 256, To: 300})},
		planCase{"sum or-list across both widths", scalar(table.AggSum, table.RangePredicate{Dim: 1, Level: 0, From: 300, To: 250,
			Or: []table.CodeRange{{From: 256, To: 70000}, {From: 95, To: 65536}, {From: 3, To: 5}}})},
		planCase{"avg point-list with members above the width", scalar(table.AggAvg, table.RangePredicate{Dim: 0, Level: 0, From: 256 + 7, To: 256 + 7,
			Or: []table.CodeRange{{From: 21, To: 21}, {From: 65536 + 21, To: 65536 + 21}, {From: 83, To: 83}}})},
		planCase{"count text IN with codes first seen in a later stripe", scalar(table.AggCount, table.RangePredicate{Text: true, From: 5, To: 5,
			Or: []table.CodeRange{{From: 150, To: 150}, {From: 270, To: 270}, {From: 299, To: 299}}})},
		planCase{"sum text range across 255|256", scalar(table.AggSum, table.RangePredicate{Text: true, From: 180, To: 280})},
		planCase{"avg grouped by two levels", byLevel},
		planCase{"avg grouped by a text column", byText},
		planCase{"min cell-granted", cells},
	)
	coarse := func(dim, level int, from, to uint32, or ...table.CodeRange) table.RangePredicate {
		return table.RangePredicate{Dim: dim, Level: level, From: from, To: to, Or: or}
	}
	byCoarse := scalar(table.AggAvg, coarse(when, 1, 2, 29), coarse(where, 1, 1, 13))
	byCoarse.GroupBy = []table.GroupCol{{Dim: when, Level: 1}, {Dim: where, Level: 0}, {Dim: when, Level: 0}}
	byMixed := scalar(table.AggSum, coarse(where, 0, 0, 1))
	byMixed.GroupBy = []table.GroupCol{{Dim: where, Level: 1}, {Dim: where, Level: 2}}
	coarseCells := scalar(table.AggMax, coarse(when, 1, 0, 31), coarse(where, 1, 2, 14))
	coarseCells.Cells = true
	mixedCells := scalar(table.AggCount, coarse(when, 0, 1, 3), coarse(when, 2, 100, 900))
	mixedCells.Cells = true
	cases = append(cases,
		planCase{"sum coarse range (shift)", scalar(table.AggSum, coarse(when, 1, 3, 20))},
		planCase{"avg coarse range (division)", scalar(table.AggAvg, coarse(where, 1, 4, 9))},
		planCase{"count coarse range past the level's last code", scalar(table.AggCount, coarse(when, 0, 2, 1000))},
		planCase{"min coarse range to the top of uint32", scalar(table.AggMin, coarse(where, 0, 1, math.MaxUint32))},
		planCase{"max coarse range wholly past the last code", scalar(table.AggMax, coarse(where, 1, 15, 20))},
		planCase{"sum coarse or-list", scalar(table.AggSum, coarse(where, 1, 1, 2,
			table.CodeRange{From: 5, To: 5}, table.CodeRange{From: 9, To: 14}, table.CodeRange{From: 13, To: 99}, table.CodeRange{From: 7, To: 6}))},
		planCase{"avg coarse point-list", scalar(table.AggAvg, coarse(when, 1, 3, 3,
			table.CodeRange{From: 7, To: 7}, table.CodeRange{From: 31, To: 31}, table.CodeRange{From: 40, To: 40}))},
		planCase{"count coarse or-list past the last code", scalar(table.AggCount, coarse(when, 0, 9, 12,
			table.CodeRange{From: 3, To: math.MaxUint32}))},
		planCase{"sum coarse and finest of one dimension", scalar(table.AggSum,
			coarse(when, 0, 1, 2), coarse(when, 2, 300, 900), coarse(where, 2, 50, 280), coarse(where, 0, 0, 1))},
		planCase{"min coarse, coarser and finest of one dimension", scalar(table.AggMin,
			coarse(where, 0, 1, 2), coarse(where, 1, 4, 12, table.CodeRange{From: 0, To: 0}), coarse(where, 2, 0, 250))},
		planCase{"avg grouped by coarse levels", byCoarse},
		planCase{"sum grouped by coarse and finest of one dimension", byMixed},
		planCase{"max cell-granted on coarse levels", coarseCells},
		planCase{"count cell-granted on coarse and finest of one dimension", mixedCells},
	)

	// reference answers m alone, row at a time. A cell member's cells are
	// a GROUP BY of its predicate columns in canonical order.
	reference := func(m table.Member, keyed bool) table.State {
		t.Helper()
		if keyed && len(m.GroupBy) == 0 {
			for _, pi := range table.CanonicalPredOrder(m.Predicates, nil) {
				m.GroupBy = append(m.GroupBy, table.GroupCol{Dim: m.Predicates[pi].Dim, Level: m.Predicates[pi].Level})
			}
		}
		return oracleRows(t, ft, m, 0, ft.Rows())
	}
	sameBits := func(a, b table.ScanResult) bool {
		return a.Rows == b.Rows && math.Float64bits(a.Value) == math.Float64bits(b.Value)
	}
	check := func(what string, got, want table.State) {
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
		keyed := table.Bind1(t, ft, c.m).Keyed(0)
		if keyed != (len(c.m.GroupBy) > 0 || c.m.Cells) {
			t.Fatalf("%s: Keyed=%v", c.name, keyed)
		}
		want := reference(c.m, keyed)

		for _, bits := range []int{8, 16, 32} {
			name := fmt.Sprintf("%s, codes >= %d bits", c.name, bits)
			ftw := table.AtWidth(ft, bits/8)

			// (a) alone.
			got, err := table.RangeFrom(table.Bind1(t, ftw, c.m), table.State{}, 0, ftw.Rows())
			if err != nil {
				t.Fatal(err)
			}
			check(name+" alone", got, want)

			// (b) as member i of a K = 8 plan over the same columns.
			for i := 0; i < 8; i++ {
				members := make([]table.Member, 8)
				for mi := range members {
					if mi == i {
						members[mi] = c.m
						continue
					}
					o := table.Member{ScanRequest: table.ScanRequest{Op: table.AggOp(rng.Intn(5)), Measure: rng.Intn(2)}}
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
						o.GroupBy = []table.GroupCol{{Dim: rng.Intn(3), Level: 0}}
					}
					members[mi] = o
				}
				pl, err := table.Bind(ftw, members)
				if err != nil {
					t.Fatal(err)
				}
				states := make([]table.State, len(members))
				if err := pl.RangeInto(0, ftw.Rows(), states); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s as member %d of 8", name, i), states[i], want)
			}

			// (c) chained through one state across three stripes.
			got = table.State{}
			for _, s := range stripes {
				s = table.AtWidth(s, bits/8)
				if got, err = table.RangeFrom(table.Bind1(t, s, c.m), got, 0, s.Rows()); err != nil {
					t.Fatal(err)
				}
			}
			check(name+" across three stripes", got, want)
		}
	}
}

func randScanReq(rng *rand.Rand, s *table.Schema) table.ScanRequest {
	req := table.ScanRequest{
		Op:      table.AggOp(rng.Intn(5)),
		Measure: rng.Intn(len(s.Measures)),
	}
	for i, k := 0, rng.Intn(4); i < k; i++ {
		req.Predicates = append(req.Predicates, randPredOn(rng, randFusedCol(rng, s)))
	}
	return req
}

// randStripe draws a [lo, hi) stripe biased toward the interesting edges:
// empty stripes, the full table, and batch-boundary-straddling cuts.
func randStripe(rng *rand.Rand, rows int) (int, int) {
	switch rng.Intn(5) {
	case 0:
		return 0, rows
	case 1:
		lo := rng.Intn(rows + 1)
		return lo, lo // empty
	default:
		lo := rng.Intn(rows + 1)
		hi := lo + rng.Intn(rows-lo+1)
		return lo, hi
	}
}

// TestScanPlanMinMaxZeroMatchStripes pins the acceptance case: min/max
// over stripes in which no row passes must agree with the reference,
// including the Rows==0 partial whose Value merges away.
func TestScanPlanMinMaxZeroMatchStripes(t *testing.T) {
	ft := table.DiffTables(t)[4] // table.BatchSize rows
	for _, op := range []table.AggOp{table.AggMin, table.AggMax} {
		req := table.ScanRequest{
			Op: op,
			// Inverted range: matches no row at all.
			Predicates: []table.RangePredicate{{Dim: 0, Level: 0, From: 3, To: 2}},
		}
		want := oracleRows(t, ft, table.Member{ScanRequest: req}, 0, ft.Rows()).Scalar
		got, err := table.RangeFrom(table.Bind1(t, ft, table.Member{ScanRequest: req}), table.State{}, 0, ft.Rows())
		if err != nil {
			t.Fatal(err)
		}
		if got.Scalar != want || got.Scalar.Rows != 0 {
			t.Fatalf("op %v zero-match: ref=%+v vec=%+v", op, want, got)
		}
		// And a zero-match stripe merged with a matching stripe.
		req.Predicates[0] = table.RangePredicate{Dim: 0, Level: 1, From: 0, To: 0}
		wantA := oracleRows(t, ft, table.Member{ScanRequest: req}, 0, 10).Scalar
		planB := table.Bind1(t, ft, table.Member{ScanRequest: req})
		gotA, _ := table.RangeFrom(planB, table.State{}, 0, 10)
		wantB := oracleRows(t, ft, table.Member{ScanRequest: req}, 10, ft.Rows()).Scalar
		gotB, _ := table.RangeFrom(planB, table.State{}, 10, ft.Rows())
		if table.Merge(op, wantA, wantB) != table.Merge(op, gotA.Scalar, gotB.Scalar) {
			t.Fatalf("op %v stripe merge mismatch", op)
		}
	}
}

// TestScanPlanValidationMatchesReference is one table of members that
// Bind and the oracle must both reject — or, at the edges, both accept: a
// measure, predicate column or key column out of range, more than
// MaxGroupCols keys, a key level or key text column of more than 65 536
// codes. Both bound-check a row range per call.
func TestScanPlanValidationMatchesReference(t *testing.T) {
	// One row: a dimension whose coarse level has 65 536 codes and finest
	// 131 072, and a text column of 65 537 strings.
	pool := make([]string, 1<<16+1)
	for i := range pool {
		pool[i] = fmt.Sprintf("s%05x", i) // fixed-width hex: sorted, unique
	}
	d, err := dict.NewHash(pool)
	if err != nil {
		t.Fatal(err)
	}
	dicts := dict.NewSet()
	dicts.Put("s", d)
	ft, err := table.FromColumns(table.Schema{
		Dimensions: []table.DimensionSpec{{Name: "d", Levels: []table.LevelSpec{{Name: "coarse", Cardinality: 1 << 16}, {Name: "finest", Cardinality: 1 << 17}}}},
		Measures:   []table.MeasureSpec{{Name: "m"}},
		Texts:      []table.TextSpec{{Name: "s"}},
	}, [][]uint32{{7}}, [][]int32{{1}}, [][]uint32{{3}}, dicts)
	if err != nil {
		t.Fatal(err)
	}
	member := func(op table.AggOp, measure int, preds []table.RangePredicate, by ...table.GroupCol) table.Member {
		return table.Member{ScanRequest: table.ScanRequest{Op: op, Measure: measure, Predicates: preds}, GroupBy: by}
	}
	on := func(p table.RangePredicate) []table.RangePredicate { return []table.RangePredicate{p} }
	for _, c := range []struct {
		name string
		m    table.Member
		ok   bool
	}{
		{"sum of measure 1 of 1", member(table.AggSum, 1, nil), false},
		{"min of measure -1", member(table.AggMin, -1, nil), false},
		{"count reads no measure", member(table.AggCount, 99, nil), true},
		{"predicate on dimension 9", member(table.AggSum, 0, on(table.RangePredicate{Dim: 9})), false},
		{"predicate on dimension -1", member(table.AggSum, 0, on(table.RangePredicate{Dim: -1})), false},
		{"predicate on level 9", member(table.AggSum, 0, on(table.RangePredicate{Level: 9})), false},
		{"predicate on text column 5", member(table.AggSum, 0, on(table.RangePredicate{Text: true, TextIndex: 5})), false},
		{"predicate on the 131 072-code level", member(table.AggMax, 0, on(table.RangePredicate{Level: 1, From: 5, To: 9})), true},
		{"key dimension 9", member(table.AggCount, 0, nil, table.GroupCol{Dim: 9}), false},
		{"key level 9", member(table.AggCount, 0, nil, table.GroupCol{Level: 9}), false},
		{"key text column 9", member(table.AggCount, 0, nil, table.GroupCol{Text: true, TextIndex: 9}), false},
		{"MaxGroupCols keys", member(table.AggSum, 0, nil, make([]table.GroupCol, table.MaxGroupCols)...), true},
		{"MaxGroupCols+1 keys", member(table.AggSum, 0, nil, make([]table.GroupCol, table.MaxGroupCols+1)...), false},
		{"key level of 65 536 codes", member(table.AggSum, 0, nil, table.GroupCol{Level: 0}), true},
		{"key level of 131 072 codes", member(table.AggSum, 0, nil, table.GroupCol{Level: 1}), false},
		{"key text column of 65 537 codes", member(table.AggCount, 0, nil, table.GroupCol{Text: true}), false},
	} {
		_, bindErr := table.Bind(ft, []table.Member{c.m})
		_, oracleErr := oracle.Table(ft, c.m)
		if (bindErr == nil) != c.ok || (oracleErr == nil) != c.ok {
			t.Errorf("%s: Bind err %v, oracle err %v; want ok=%v", c.name, bindErr, oracleErr, c.ok)
		}
	}
	count := member(table.AggCount, 0, nil)
	plan := table.Bind1(t, ft, count)
	for _, r := range [][2]int{{-1, 1}, {0, 2}, {1, 0}} {
		_, planErr := table.RangeFrom(plan, table.State{}, r[0], r[1])
		_, oracleErr := oracle.Rows(ft, count, r[0], r[1])
		if planErr == nil || oracleErr == nil {
			t.Errorf("rows [%d,%d): plan err %v, oracle err %v; want both rejected", r[0], r[1], planErr, oracleErr)
		}
	}
}

// oracleRows answers m alone over rows [lo, hi) of ft, row at a time.
func oracleRows(t testing.TB, ft *table.FactTable, m table.Member, lo, hi int) table.State {
	t.Helper()
	st, err := oracle.Rows(ft, m, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func groupsEqual(a, b table.Groups) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va != vb {
			return false
		}
	}
	return true
}

func randGroupReq(rng *rand.Rand, s *table.Schema) table.Member {
	req := table.Member{ScanRequest: randScanReq(rng, s)}
	n := rng.Intn(2) + 1
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			req.GroupBy = append(req.GroupBy, table.GroupCol{Text: true, TextIndex: 0})
			continue
		}
		d := rng.Intn(len(s.Dimensions))
		req.GroupBy = append(req.GroupBy, table.GroupCol{Dim: d, Level: rng.Intn(len(s.Dimensions[d].Levels))})
	}
	return req
}

// TestGroupScanPlanStripeAccumulation proves RangeInto over consecutive
// stripes into one state is bit-identical to a single reference scan over
// their union — the substitution gpusim's per-SM loop makes. (It is NOT
// compared against MergeGroups of per-stripe partials: merging partial
// float sums rounds differently than one continuous accumulation, which
// is exactly why the per-SM loop now accumulates instead of merging.)
func TestGroupScanPlanStripeAccumulation(t *testing.T) {
	tables := table.DiffTables(t)
	rng := rand.New(rand.NewSource(44))
	schema := table.DiffSchema()
	for i := 0; i < 200; i++ {
		ft := tables[rng.Intn(len(tables))]
		if ft.Rows() == 0 {
			continue
		}
		req := randGroupReq(rng, &schema)
		plan, err := table.Bind(ft, []table.Member{req})
		if err != nil {
			continue
		}
		// Cut the table into 1-4 stripes.
		cuts := []int{0}
		for k, n := 0, rng.Intn(3); k < n; k++ {
			cuts = append(cuts, rng.Intn(ft.Rows()+1))
		}
		cuts = append(cuts, ft.Rows())
		for a := 1; a < len(cuts); a++ {
			for b := a; b > 0 && cuts[b-1] > cuts[b]; b-- {
				cuts[b-1], cuts[b] = cuts[b], cuts[b-1]
			}
		}
		var st table.State
		for s := 1; s < len(cuts); s++ {
			st, err = table.RangeFrom(plan, st, cuts[s-1], cuts[s])
			if err != nil {
				t.Fatal(err)
			}
		}
		acc := st.Groups
		ref := oracleRows(t, ft, req, cuts[0], cuts[len(cuts)-1]).Groups
		if !groupsEqual(ref, acc) {
			t.Fatalf("case %d: stripe accumulation diverged\nref=%v\nvec=%v", i, ref, acc)
		}
	}
}

// fusedCol is one column pick of a compatibility set.
type fusedCol struct {
	text  bool
	tidx  int
	dim   int
	level int
	card  int
}

func randFusedCol(rng *rand.Rand, s *table.Schema) fusedCol {
	if rng.Intn(4) == 0 {
		return fusedCol{text: true, card: 30}
	}
	d := rng.Intn(len(s.Dimensions))
	l := rng.Intn(len(s.Dimensions[d].Levels))
	return fusedCol{dim: d, level: l, card: s.LevelCardinality(d, l)}
}

// randPredOn draws one predicate of a random shape confined to a fixed
// column — the member-side half of randPred.
func randPredOn(rng *rand.Rand, c fusedCol) table.RangePredicate {
	var p table.RangePredicate
	if c.text {
		p.Text = true
		p.TextIndex = c.tidx
	} else {
		p.Dim = c.dim
		p.Level = c.level
	}
	card := c.card
	switch rng.Intn(3) {
	case 0: // plain range, sometimes inverted (matches nothing)
		if rng.Intn(8) == 0 {
			p.From = uint32(rng.Intn(card)) + 1
			p.To = p.From - 1
			return p
		}
		a, b := uint32(rng.Intn(card)), uint32(rng.Intn(card))
		if a > b {
			a, b = b, a
		}
		p.From, p.To = a, b
	case 1: // range + Or intervals, overlaps and inversions allowed
		a, b := uint32(rng.Intn(card)), uint32(rng.Intn(card))
		if a > b {
			a, b = b, a
		}
		p.From, p.To = a, b
		for i, k := 0, rng.Intn(3)+1; i < k; i++ {
			c, d := uint32(rng.Intn(card)), uint32(rng.Intn(card))
			if rng.Intn(4) != 0 && c > d {
				c, d = d, c
			}
			p.Or = append(p.Or, table.CodeRange{From: c, To: d})
		}
	default: // points: IN-list of single codes
		p.From = uint32(rng.Intn(card))
		p.To = p.From
		for i, k := 0, rng.Intn(4); i < k; i++ {
			cc := uint32(rng.Intn(card))
			p.Or = append(p.Or, table.CodeRange{From: cc, To: cc})
		}
	}
	return p
}

// randFusedFamily draws a compatibility set of 0-3 columns (occasionally
// with a deliberate duplicate, exercising the multiset rule) and k member
// requests each filtering exactly that multiset in shuffled order.
func randFusedFamily(rng *rand.Rand, s *table.Schema, k int) []table.ScanRequest {
	nc := rng.Intn(4)
	cols := make([]fusedCol, 0, nc+1)
	for i := 0; i < nc; i++ {
		cols = append(cols, randFusedCol(rng, s))
	}
	if nc > 0 && rng.Intn(6) == 0 {
		cols = append(cols, cols[rng.Intn(len(cols))]) // duplicate column
	}
	reqs := make([]table.ScanRequest, k)
	for mi := range reqs {
		reqs[mi] = table.ScanRequest{
			Op:      table.AggOp(rng.Intn(5)),
			Measure: rng.Intn(len(s.Measures)),
		}
		for _, c := range cols {
			reqs[mi].Predicates = append(reqs[mi].Predicates, randPredOn(rng, c))
		}
		rng.Shuffle(len(reqs[mi].Predicates), func(a, b int) {
			reqs[mi].Predicates[a], reqs[mi].Predicates[b] = reqs[mi].Predicates[b], reqs[mi].Predicates[a]
		})
	}
	return reqs
}

func TestFusedScanDifferential(t *testing.T) {
	tables := table.DiffTables(t)
	rng := rand.New(rand.NewSource(77))
	schema := table.DiffSchema()
	for i := 0; i < 600; i++ {
		ft := tables[rng.Intn(len(tables))]
		k := rng.Intn(6) + 1
		members := make([]table.Member, k)
		for mi, req := range randFusedFamily(rng, &schema, k) {
			members[mi] = table.Member{ScanRequest: req}
			// Scalar, cell-asking and GROUP BY members share one pass.
			switch rng.Intn(4) {
			case 0:
				members[mi].Cells = true
			case 1:
				members[mi].GroupBy = randGroupReq(rng, &schema).GroupBy
			}
		}
		fused, err := table.Bind(ft, members)
		if err != nil {
			t.Fatalf("case %d: Bind: %v", i, err)
		}
		lo, hi := randStripe(rng, ft.Rows())
		hi2 := hi + rng.Intn(ft.Rows()-hi+1)

		states := make([]table.State, k)
		if err := fused.RangeInto(lo, hi, states); err != nil {
			t.Fatalf("case %d: RangeInto: %v", i, err)
		}
		// Chain a second consecutive stripe through the same states:
		// continuous accumulation must match one reference scan over both.
		if err := fused.RangeInto(hi, hi2, states); err != nil {
			t.Fatalf("case %d: RangeInto chain: %v", i, err)
		}
		for mi, m := range members {
			fail := func(want, got any) {
				t.Helper()
				t.Fatalf("case %d member %d: %+v stripes=[%d,%d)+[%d,%d)\nref=%+v\nfused=%+v keyed=%v",
					i, mi, m, lo, hi, hi, hi2, want, got, fused.Keyed(mi))
			}
			if len(m.GroupBy) > 0 {
				want := oracleRows(t, ft, m, lo, hi2).Groups
				if !fused.Keyed(mi) || !groupsEqual(want, states[mi].Groups) {
					fail(want, states[mi].Groups)
				}
				continue
			}
			want := oracleRows(t, ft, m, lo, hi2).Scalar
			got := states[mi].Scalar
			if fused.Keyed(mi) {
				got = table.FoldCells(m.Op, states[mi].Groups)
				if states[mi].Scalar != (table.ScanResult{}) {
					t.Fatalf("case %d member %d: cells member accumulated a scalar too", i, mi)
				}
			}
			if got != want {
				fail(want, got)
			}
		}
	}
}

// TestFusedScanCellsSubInterval pins the subsumption property the result
// cache relies on: folding only the cells whose coordinates fall inside a
// narrower interval answers the narrowed query bit-identically to running
// it unfused — for the cell-eligible ops (count/min/max).
func TestFusedScanCellsSubInterval(t *testing.T) {
	ft := table.DiffTables(t)[6] // 3*table.BatchSize + 213 rows
	rng := rand.New(rand.NewSource(99))
	for _, op := range []table.AggOp{table.AggCount, table.AggMin, table.AggMax} {
		req := table.ScanRequest{
			Op:      op,
			Measure: 0,
			Predicates: []table.RangePredicate{
				{Dim: 0, Level: 1, From: 4, To: 40}, // months
				{Dim: 1, Level: 0, From: 1, To: 5},  // regions
			},
		}
		fused := table.Bind1(t, ft, table.Member{ScanRequest: req, Cells: true})
		if !fused.Keyed(0) {
			t.Fatalf("op %v: cells not granted", op)
		}
		st, err := table.RangeFrom(fused, table.State{}, 0, ft.Rows())
		if err != nil {
			t.Fatal(err)
		}
		cells := st.Groups
		order := table.CanonicalPredOrder(req.Predicates, nil)
		for trial := 0; trial < 40; trial++ {
			// Narrow each predicate interval to a random sub-interval.
			sub := req
			sub.Predicates = append([]table.RangePredicate(nil), req.Predicates...)
			for pi := range sub.Predicates {
				p := &sub.Predicates[pi]
				w := int(p.To-p.From) + 1
				a := p.From + uint32(rng.Intn(w))
				b := a + uint32(rng.Intn(int(p.To-a)+1))
				p.From, p.To = a, b
			}
			// Fold only the cells inside the sub-intervals, canonical
			// coordinate order.
			var acc table.ScanResult
			for _, key := range sortedGroupKeys(cells) {
				coords := table.UnpackKey(key, len(order))
				in := true
				for ci, pi := range order {
					p := &sub.Predicates[pi]
					if coords[ci] < p.From || coords[ci] > p.To {
						in = false
						break
					}
				}
				if in {
					acc = table.Merge(op, acc, cells[key])
				}
			}
			want := oracleRows(t, ft, table.Member{ScanRequest: sub}, 0, ft.Rows()).Scalar
			if acc != want {
				t.Fatalf("op %v trial %d: sub=%+v folded=%+v want=%+v", op, trial, sub.Predicates, acc, want)
			}
		}
	}
}

func sortedGroupKeys(g table.Groups) []table.GroupKey {
	keys := make([]table.GroupKey, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
