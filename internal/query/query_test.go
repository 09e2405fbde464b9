package query

import (
	"strings"
	"testing"

	"hybridolap/internal/cube"
	"hybridolap/internal/table"
)

func testSchema() table.Schema {
	return table.Schema{
		Dimensions: []table.DimensionSpec{
			{Name: "time", Levels: []table.LevelSpec{
				{Name: "year", Cardinality: 3},
				{Name: "month", Cardinality: 36},
			}},
			{Name: "geo", Levels: []table.LevelSpec{
				{Name: "region", Cardinality: 5},
				{Name: "city", Cardinality: 50},
			}},
		},
		Measures: []table.MeasureSpec{{Name: "sales"}, {Name: "qty"}},
		Texts:    []table.TextSpec{{Name: "store_name"}},
	}
}

func genTable(t testing.TB, rows int) *table.FactTable {
	t.Helper()
	ft, err := table.Generate(table.GenSpec{Schema: testSchema(), Rows: rows, Seed: 42,
		TextPools: [][]string{{"acme", "bigbox", "corner", "depot"}}})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestResolution(t *testing.T) {
	q := &Query{Conditions: []Condition{{Dim: 0, Level: 1}, {Dim: 1, Level: 0}}}
	if q.Resolution() != 1 {
		t.Fatalf("Resolution = %d, want 1", q.Resolution())
	}
	if (&Query{}).Resolution() != 0 {
		t.Fatal("empty query resolution should be 0")
	}
}

func TestValidate(t *testing.T) {
	s := testSchema()
	good := &Query{
		Conditions: []Condition{{Dim: 0, Level: 1, From: 2, To: 10}},
		TextConds:  []TextCondition{{Column: "store_name", From: "a", To: "b"}},
		Measure:    1, Op: table.AggSum,
	}
	if err := good.Validate(&s); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []*Query{
		{Conditions: []Condition{{Dim: 9, Level: 0}}},
		{Conditions: []Condition{{Dim: 0, Level: 9}}},
		{Conditions: []Condition{{Dim: 0, Level: 0, From: 2, To: 1}}},
		{Conditions: []Condition{{Dim: 0, Level: 0, From: 0, To: 99}}},
		{Conditions: []Condition{{Dim: 0, Level: 0}, {Dim: 0, Level: 0}}}, // dup
		{TextConds: []TextCondition{{Column: "nope", From: "a", To: "a"}}},
		{TextConds: []TextCondition{{Column: "store_name", From: "z", To: "a"}}},
		{Measure: 9, Op: table.AggSum},
		{Op: table.AggOp(-1)},
		{Op: table.AggOp(5)},
		{Op: table.AggOp(42)},
	}
	for i, q := range bad {
		if err := q.Validate(&s); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
	// Count with out-of-range measure is fine: no measure read.
	ok := &Query{Measure: 9, Op: table.AggCount}
	if err := ok.Validate(&s); err != nil {
		t.Errorf("count query rejected: %v", err)
	}
}

func TestBoxExpansion(t *testing.T) {
	s := testSchema()
	q := &Query{Conditions: []Condition{
		{Dim: 0, Level: 0, From: 1, To: 1},  // year 1 -> months 12..23
		{Dim: 1, Level: 1, From: 5, To: 10}, // city range stays as-is at level 1
	}}
	box, empty, err := q.Box(&s, 1)
	if err != nil || empty {
		t.Fatalf("Box: empty=%v err=%v", empty, err)
	}
	want := cube.Box{{From: 12, To: 23}, {From: 5, To: 10}}
	for d := range want {
		if box[d] != want[d] {
			t.Fatalf("box = %v, want %v", box, want)
		}
	}
	// Unconditioned dimensions span full cardinality.
	q2 := &Query{Conditions: []Condition{{Dim: 0, Level: 0, From: 0, To: 0}}}
	box2, _, err := q2.Box(&s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if box2[1].From != 0 || box2[1].To != 4 {
		t.Fatalf("unconditioned dim box = %v", box2[1])
	}
	// Condition finer than requested box level fails.
	q3 := &Query{Conditions: []Condition{{Dim: 0, Level: 1, From: 0, To: 0}}}
	if _, _, err := q3.Box(&s, 0); err == nil {
		t.Fatal("fine condition accepted for coarse box")
	}
	// Conditions on two levels of one dimension intersect (eq. 11 allows
	// multi-level decompositions): year 1 (months 12..23) ∩ months 18..30
	// = months 18..23.
	q4 := &Query{Conditions: []Condition{
		{Dim: 0, Level: 0, From: 1, To: 1},
		{Dim: 0, Level: 1, From: 18, To: 30},
	}}
	box4, empty, err := q4.Box(&s, 1)
	if err != nil || empty {
		t.Fatalf("multi-level Box: empty=%v err=%v", empty, err)
	}
	if box4[0].From != 18 || box4[0].To != 23 {
		t.Fatalf("multi-level intersection = %v", box4[0])
	}
	// Disjoint levels yield an empty box.
	q5 := &Query{Conditions: []Condition{
		{Dim: 0, Level: 0, From: 0, To: 0},   // months 0..11
		{Dim: 0, Level: 1, From: 24, To: 30}, // months 24..30
	}}
	if _, empty, err := q5.Box(&s, 1); err != nil || !empty {
		t.Fatalf("disjoint Box: empty=%v err=%v", empty, err)
	}
}

func TestGPUOnlyAndColumnsAccessed(t *testing.T) {
	q := &Query{
		Conditions: []Condition{{Dim: 0, Level: 0}},
		TextConds:  []TextCondition{{Column: "store_name", From: "a", To: "a"}},
		Op:         table.AggSum,
	}
	if !q.GPUOnly() {
		t.Fatal("text query should be GPU-only")
	}
	if q.ColumnsAccessed() != 3 { // 1 dim + 1 text + 1 measure
		t.Fatalf("ColumnsAccessed = %d", q.ColumnsAccessed())
	}
	q.Op = table.AggCount
	if q.ColumnsAccessed() != 2 {
		t.Fatalf("count ColumnsAccessed = %d", q.ColumnsAccessed())
	}
	if (&Query{}).GPUOnly() {
		t.Fatal("dimension-only query should not be GPU-only")
	}
}

func TestTranslateEqualityAndRange(t *testing.T) {
	ft := genTable(t, 100)
	q := &Query{TextConds: []TextCondition{
		{Column: "store_name", From: "bigbox", To: "bigbox"},
		{Column: "store_name", From: "a", To: "c"},
	}}
	if !q.NeedsTranslation() {
		t.Fatal("NeedsTranslation should be true")
	}
	lookups, err := Translate(q, ft.Dicts())
	if err != nil {
		t.Fatal(err)
	}
	if lookups != 3 { // 1 equality + 2 for the range
		t.Fatalf("lookups = %d, want 3", lookups)
	}
	if q.NeedsTranslation() {
		t.Fatal("NeedsTranslation should be false after Translate")
	}
	tc := q.TextConds[0]
	if !tc.Translated || tc.Empty || tc.FromCode != tc.ToCode {
		t.Fatalf("equality translation = %+v", tc)
	}
	// sorted codes: acme=0 bigbox=1 corner=2 depot=3
	if tc.FromCode != 1 {
		t.Fatalf("bigbox code = %d, want 1", tc.FromCode)
	}
	rc := q.TextConds[1]
	if rc.FromCode != 0 || rc.ToCode != 1 { // acme..bigbox fall in [a,c]... corner too!
		// "corner" <= "c"? "corner" > "c" lexicographically, so excluded.
		t.Fatalf("range translation = %+v", rc)
	}
}

func TestTranslateMissingLiteralIsEmpty(t *testing.T) {
	ft := genTable(t, 100)
	q := &Query{TextConds: []TextCondition{{Column: "store_name", From: "zzz", To: "zzz"}}}
	if _, err := Translate(q, ft.Dicts()); err != nil {
		t.Fatal(err)
	}
	if !q.TextConds[0].Empty {
		t.Fatal("missing literal should translate to Empty")
	}
	// Empty propagates to ToScanRequest.
	s := ft.Schema()
	_, empty, err := q.ToScanRequest(s)
	if err != nil || !empty {
		t.Fatalf("ToScanRequest = (empty=%v, err=%v)", empty, err)
	}
}

func TestTranslateUnknownColumnFails(t *testing.T) {
	ft := genTable(t, 10)
	q := &Query{TextConds: []TextCondition{{Column: "ghost", From: "a", To: "a"}}}
	if _, err := Translate(q, ft.Dicts()); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestTranslationDictLens(t *testing.T) {
	ft := genTable(t, 100)
	q := &Query{TextConds: []TextCondition{
		{Column: "store_name", From: "a", To: "a"},
		{Column: "store_name", From: "b", To: "b", Translated: true},
	}}
	lens := TranslationDictLens(q, ft.Dicts())
	if len(lens) != 1 || lens[0] != 4 {
		t.Fatalf("lens = %v, want [4]", lens)
	}
}

func TestToScanRequestMatchesDirectScan(t *testing.T) {
	ft := genTable(t, 500)
	q := &Query{
		Conditions: []Condition{{Dim: 0, Level: 1, From: 0, To: 17}},
		TextConds:  []TextCondition{{Column: "store_name", From: "acme", To: "acme"}},
		Measure:    0, Op: table.AggSum,
	}
	if _, err := Translate(q, ft.Dicts()); err != nil {
		t.Fatal(err)
	}
	req, empty, err := q.ToScanRequest(ft.Schema())
	if err != nil || empty {
		t.Fatalf("ToScanRequest: empty=%v err=%v", empty, err)
	}
	res, err := table.Scan(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over the raw strings.
	var want float64
	var rows int64
	d, _ := ft.Dicts().Get("store_name")
	acme, _ := d.Lookup("acme")
	for r := 0; r < ft.Rows(); r++ {
		if ft.CoordAt(r, 0, 1) <= 17 && ft.TextColumn(0).At(r) == uint32(acme) {
			want += ft.MeasureColumn(0)[r]
			rows++
		}
	}
	if res.Rows != rows || res.Value != want {
		t.Fatalf("scan = (%v,%d), want (%v,%d)", res.Value, res.Rows, want, rows)
	}
}

func TestToScanRequestRequiresTranslation(t *testing.T) {
	s := testSchema()
	q := &Query{TextConds: []TextCondition{{Column: "store_name", From: "a", To: "a"}}}
	if _, _, err := q.ToScanRequest(&s); err == nil {
		t.Fatal("untranslated query accepted")
	}
}

func TestClone(t *testing.T) {
	q := &Query{
		ID:         7,
		Conditions: []Condition{{Dim: 0, Level: 1, From: 1, To: 2}},
		TextConds:  []TextCondition{{Column: "store_name", From: "a", To: "a"}},
	}
	c := q.Clone()
	c.Conditions[0].From = 99
	c.TextConds[0].Translated = true
	if q.Conditions[0].From == 99 || q.TextConds[0].Translated {
		t.Fatal("Clone is not deep")
	}
}

func TestSubCubeBytes(t *testing.T) {
	ft := genTable(t, 500)
	cs, err := cube.BuildSet(ft, []int{0, 1}, 0, cube.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Conditions: []Condition{
		{Dim: 0, Level: 0, From: 0, To: 1}, // 2 years
		{Dim: 1, Level: 0, From: 0, To: 2}, // 3 regions
	}}
	n, ok := q.SubCubeBytes(cs)
	if !ok || n != 6*cube.CellSize {
		t.Fatalf("SubCubeBytes = (%d,%v), want (%d,true)", n, ok, 6*cube.CellSize)
	}
}

func TestGeneratorDeterministicAndValid(t *testing.T) {
	ft := genTable(t, 200)
	cfg := GenConfig{
		Schema: ft.Schema(), Seed: 5, TextProb: 0.5, TextRangeProb: 0.3,
		MissProb: 0.1, Dicts: ft.Dicts(),
		Ops: []table.AggOp{table.AggSum, table.AggCount, table.AggAvg},
	}
	g1, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(cfg)
	s := ft.Schema()
	textSeen, dimOnly := 0, 0
	for i := 0; i < 500; i++ {
		a, b := g1.Next(), g2.Next()
		if a.ID != b.ID || len(a.Conditions) != len(b.Conditions) || len(a.TextConds) != len(b.TextConds) {
			t.Fatal("generator not deterministic")
		}
		if err := a.Validate(s); err != nil {
			t.Fatalf("generated query %d invalid: %v", i, err)
		}
		if len(a.Conditions) == 0 {
			t.Fatal("generated query has no conditions")
		}
		if len(a.TextConds) > 0 {
			textSeen++
		} else {
			dimOnly++
		}
	}
	if textSeen == 0 || dimOnly == 0 {
		t.Fatalf("workload mix degenerate: text=%d dimOnly=%d", textSeen, dimOnly)
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	if _, err := NewGenerator(GenConfig{}); err == nil {
		t.Fatal("nil schema accepted")
	}
	s := testSchema()
	if _, err := NewGenerator(GenConfig{Schema: &s, TextProb: 0.5}); err == nil {
		t.Fatal("TextProb without Dicts accepted")
	}
}

func TestGeneratorBatch(t *testing.T) {
	s := testSchema()
	g, err := NewGenerator(GenConfig{Schema: &s, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Batch(10)
	if len(qs) != 10 {
		t.Fatalf("Batch len = %d", len(qs))
	}
	for i := 1; i < len(qs); i++ {
		if qs[i].ID <= qs[i-1].ID {
			t.Fatal("IDs not increasing")
		}
	}
}

func TestGeneratorLevelWeights(t *testing.T) {
	s := testSchema()
	g, err := NewGenerator(GenConfig{Schema: &s, Seed: 2, LevelWeights: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := g.Next()
		for _, c := range q.Conditions {
			if c.Level != 0 {
				t.Fatalf("LevelWeights ignored: got level %d", c.Level)
			}
		}
	}
}

func TestParseBasic(t *testing.T) {
	s := testSchema()
	q, err := Parse("SELECT sum(sales) WHERE time.month BETWEEN 3 AND 7 AND geo.region = 2 AND store_name = 'acme'", &s)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != table.AggSum || q.Measure != 0 {
		t.Fatalf("op/measure = %v/%d", q.Op, q.Measure)
	}
	if len(q.Conditions) != 2 || len(q.TextConds) != 1 {
		t.Fatalf("conds = %d/%d", len(q.Conditions), len(q.TextConds))
	}
	c := q.Conditions[0]
	if c.Dim != 0 || c.Level != 1 || c.From != 3 || c.To != 7 {
		t.Fatalf("cond0 = %+v", c)
	}
	c = q.Conditions[1]
	if c.Dim != 1 || c.Level != 0 || c.From != 2 || c.To != 2 {
		t.Fatalf("cond1 = %+v", c)
	}
	tc := q.TextConds[0]
	if tc.Column != "store_name" || tc.From != "acme" || tc.To != "acme" {
		t.Fatalf("textcond = %+v", tc)
	}
}

func TestParseCountStarAndNoWhere(t *testing.T) {
	s := testSchema()
	q, err := Parse("select count(*)", &s)
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != table.AggCount || len(q.Conditions) != 0 {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseTextRangeAndEscapes(t *testing.T) {
	s := testSchema()
	q, err := Parse("select avg(qty) where store_name between 'a''b' and 'z'", &s)
	if err != nil {
		t.Fatal(err)
	}
	if q.TextConds[0].From != "a'b" || q.TextConds[0].To != "z" {
		t.Fatalf("escape handling: %+v", q.TextConds[0])
	}
	if q.Op != table.AggAvg || q.Measure != 1 {
		t.Fatalf("op/measure: %v/%d", q.Op, q.Measure)
	}
}

func TestParseErrors(t *testing.T) {
	s := testSchema()
	bad := []string{
		"",
		"nonsense",
		"select frob(sales)",
		"select sum(*)",
		"select sum(ghost)",
		"select sum(sales) where",
		"select sum(sales) where time = 1",       // dim without level
		"select sum(sales) where time.ghost = 1", // unknown level
		"select sum(sales) where ghost.month = 1",                  // unknown dim
		"select sum(sales) where store_name = 3",                   // number for text
		"select sum(sales) where time.month = 'x'",                 // string for dim
		"select sum(sales) where time.month between 3",             // incomplete
		"select sum(sales) where time.month = 99",                  // out of cardinality
		"select sum(sales) where store_name = 'open",               // unterminated
		"select sum(sales) where time.month = 1 or geo.region = 1", // OR unsupported
		"select sum(sales) where time.month = 4294967296",          // overflows uint32
	}
	for _, in := range bad {
		if _, err := Parse(in, &s); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s := testSchema()
	if _, err := Parse("SeLeCt SUM(sales) WhErE time.year = 1 AnD geo.region BeTwEeN 0 AnD 2", &s); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsTrailingGarbage(t *testing.T) {
	s := testSchema()
	if _, err := Parse("select sum(sales) where time.year = 1 garbage garbage", &s); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := Parse("select sum(sales) trailing", &s); err == nil {
		t.Fatal("non-WHERE trailing accepted")
	}
}

func TestParseUnexpectedCharacter(t *testing.T) {
	s := testSchema()
	if _, err := Parse("select sum(sales) where time.year = 1 ; drop", &s); err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("err = %v", err)
	}
}
