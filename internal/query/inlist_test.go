package query

import (
	"math"
	"testing"

	"hybridolap/internal/oracle"
	"hybridolap/internal/table"
)

func TestParseInList(t *testing.T) {
	s := testSchema()
	q, err := Parse("SELECT sum(sales) WHERE store_name IN ('acme', 'depot', 'ghost')", &s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.TextConds) != 1 {
		t.Fatalf("text conds = %d", len(q.TextConds))
	}
	tc := q.TextConds[0]
	if len(tc.In) != 3 || tc.In[0] != "acme" || tc.In[2] != "ghost" {
		t.Fatalf("In = %v", tc.In)
	}
	if tc.Lookups() != 3 {
		t.Fatalf("Lookups = %d", tc.Lookups())
	}
	// Case-insensitive keyword.
	if _, err := Parse("select sum(sales) where store_name in ('x')", &s); err != nil {
		t.Fatal(err)
	}
}

func TestParseInListErrors(t *testing.T) {
	s := testSchema()
	bad := []string{
		"select sum(sales) where store_name in ()",
		"select sum(sales) where store_name in ('a' 'b')",
		"select sum(sales) where store_name in ('a',)",
		"select sum(sales) where store_name in 'a'",
		"select sum(sales) where time.month in (1, 2)", // dimension IN unsupported
	}
	for _, in := range bad {
		if _, err := Parse(in, &s); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestTranslateInList(t *testing.T) {
	ft := genTable(t, 200)
	q := &Query{TextConds: []TextCondition{{
		Column: "store_name",
		In:     []string{"acme", "depot", "not-present"},
	}}}
	lookups, err := Translate(q, ft.Dicts())
	if err != nil {
		t.Fatal(err)
	}
	if lookups != 3 {
		t.Fatalf("lookups = %d, want 3", lookups)
	}
	tc := q.TextConds[0]
	if !tc.Translated || tc.Empty {
		t.Fatalf("translation state: %+v", tc)
	}
	// acme=0, depot=3 in sorted order; the missing literal drops out.
	if len(tc.InCodes) != 2 || tc.InCodes[0] != 0 || tc.InCodes[1] != 3 {
		t.Fatalf("InCodes = %v", tc.InCodes)
	}
}

func TestTranslateInListAllMissing(t *testing.T) {
	ft := genTable(t, 50)
	q := &Query{TextConds: []TextCondition{{Column: "store_name", In: []string{"zz1", "zz2"}}}}
	if _, err := Translate(q, ft.Dicts()); err != nil {
		t.Fatal(err)
	}
	if !q.TextConds[0].Empty {
		t.Fatal("all-missing IN list should be Empty")
	}
}

func TestInListScanMatchesBruteForce(t *testing.T) {
	ft := genTable(t, 800)
	q := &Query{
		Conditions: []Condition{{Dim: 0, Level: 0, From: 0, To: 2}},
		TextConds:  []TextCondition{{Column: "store_name", In: []string{"acme", "corner"}}},
		Measure:    0, Op: table.AggSum,
	}
	if _, err := Translate(q, ft.Dicts()); err != nil {
		t.Fatal(err)
	}
	req, empty, err := q.ToScanRequest(ft.Schema())
	if err != nil || empty {
		t.Fatalf("ToScanRequest: empty=%v err=%v", empty, err)
	}
	m := table.Member{ScanRequest: req}
	st, err := oracle.Table(ft, m)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := oracle.Final(ft.Schema(), m, st)
	d, _ := ft.Dicts().Get("store_name")
	acme, _ := d.Lookup("acme")
	corner, _ := d.Lookup("corner")
	var want float64
	var rows int64
	for r := 0; r < ft.Rows(); r++ {
		code := ft.TextColumn(0).At(r)
		if ft.CoordAt(r, 0, 0) <= 2 && (code == uint32(acme) || code == uint32(corner)) {
			want += float64(ft.MeasureColumn(0)[r])
			rows++
		}
	}
	want /= math.Pow10(ft.Schema().MeasureScale(0))
	if got.Rows != rows || got.Value != want {
		t.Fatalf("scan = (%v,%d), want (%v,%d)", got.Value, got.Rows, want, rows)
	}
}

func TestLookupsCountInLiterals(t *testing.T) {
	q := &Query{TextConds: []TextCondition{
		{Column: "store_name", In: []string{"a", "b", "c"}},
		{Column: "store_name", From: "a", To: "z"},
	}}
	n := 0
	for i := range q.TextConds {
		n += q.TextConds[i].Lookups()
	}
	if n != 5 { // 3 IN lookups + 2 range lookups
		t.Fatalf("lookups = %d, want 5", n)
	}
}

func TestCloneDeepCopiesInList(t *testing.T) {
	q := &Query{TextConds: []TextCondition{{Column: "c", In: []string{"a"}, InCodes: []uint32{1}}}}
	c := q.Clone()
	c.TextConds[0].In[0] = "mutated"
	c.TextConds[0].InCodes[0] = 99
	if q.TextConds[0].In[0] != "a" || q.TextConds[0].InCodes[0] != 1 {
		t.Fatal("Clone shares IN-list backing arrays")
	}
}

func TestValidateInListQuery(t *testing.T) {
	s := testSchema()
	ok := &Query{TextConds: []TextCondition{{Column: "store_name", In: []string{"z", "a"}}}}
	if err := ok.Validate(&s); err != nil {
		t.Fatalf("IN list with unordered literals rejected: %v", err)
	}
	bad := &Query{TextConds: []TextCondition{{Column: "ghost", In: []string{"a"}}}}
	if err := bad.Validate(&s); err == nil {
		t.Fatal("unknown column accepted")
	}
}
