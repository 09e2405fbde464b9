package query

import (
	"testing"

	"hybridolap/internal/cube"
	"hybridolap/internal/oracle"
	"hybridolap/internal/table"
)

func TestGroupedAndResolution(t *testing.T) {
	q := &Query{Conditions: []Condition{{Dim: 0, Level: 0, From: 0, To: 1}}}
	if q.Grouped() {
		t.Fatal("ungrouped query reported Grouped")
	}
	q.GroupBy = []GroupRef{{Dim: 1, Level: 1}}
	if !q.Grouped() {
		t.Fatal("grouped query not reported")
	}
	// Group level dominates condition level.
	if q.GroupResolution() != 1 {
		t.Fatalf("GroupResolution = %d", q.GroupResolution())
	}
	// Text groupings do not affect resolution.
	q.GroupBy = []GroupRef{{Text: true, Column: "store_name"}}
	if q.GroupResolution() != 0 {
		t.Fatalf("text GroupResolution = %d", q.GroupResolution())
	}
	if !q.GroupByGPUOnly() || !q.GPUOnly() {
		t.Fatal("text grouping should force GPU")
	}
}

func TestParseGroupByVariants(t *testing.T) {
	s := testSchema()
	q, err := Parse("SELECT sum(sales) GROUP BY time.year, store_name", &s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 2 {
		t.Fatalf("GroupBy = %+v", q.GroupBy)
	}
	if q.GroupBy[0].Text || q.GroupBy[0].Dim != 0 || q.GroupBy[0].Level != 0 {
		t.Fatalf("dim group = %+v", q.GroupBy[0])
	}
	if !q.GroupBy[1].Text || q.GroupBy[1].Column != "store_name" {
		t.Fatalf("text group = %+v", q.GroupBy[1])
	}
	// With WHERE and GROUP BY together.
	q, err = Parse("SELECT avg(qty) WHERE geo.region = 1 GROUP BY time.month", &s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Conditions) != 1 || len(q.GroupBy) != 1 {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseGroupByErrors(t *testing.T) {
	s := testSchema()
	bad := []string{
		"SELECT sum(sales) GROUP BY",
		"SELECT sum(sales) GROUP time.year",
		"SELECT sum(sales) GROUP BY ghost",
		"SELECT sum(sales) GROUP BY time.ghost",
		"SELECT sum(sales) GROUP BY ghost.year",
		"SELECT sum(sales) GROUP BY time.year,",
		"SELECT sum(sales) GROUP BY time.year extra",
	}
	for _, in := range bad {
		if _, err := Parse(in, &s); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestValidateGroupByLimits(t *testing.T) {
	s := testSchema()
	q := &Query{Op: table.AggCount, GroupBy: []GroupRef{
		{Dim: 0, Level: 0}, {Dim: 0, Level: 1}, {Dim: 1, Level: 0}, {Dim: 1, Level: 1}, {Dim: 0, Level: 0},
	}}
	if err := q.Validate(&s); err == nil {
		t.Fatal("five group columns accepted")
	}
	bad := []*Query{
		{Op: table.AggCount, GroupBy: []GroupRef{{Dim: 9}}},
		{Op: table.AggCount, GroupBy: []GroupRef{{Dim: 0, Level: 9}}},
		{Op: table.AggCount, GroupBy: []GroupRef{{Text: true, Column: "ghost"}}},
	}
	for i, q := range bad {
		if err := q.Validate(&s); err == nil {
			t.Errorf("bad group query %d accepted", i)
		}
	}
}

func TestQueryMember(t *testing.T) {
	ft := genTable(t, 300)
	s := ft.Schema()
	q := &Query{
		Conditions: []Condition{{Dim: 0, Level: 0, From: 0, To: 1}},
		GroupBy:    []GroupRef{{Dim: 1, Level: 0}, {Text: true, Column: "store_name"}},
		Measure:    0, Op: table.AggSum,
	}
	req, empty, err := q.Member(s)
	if err != nil || empty {
		t.Fatalf("err=%v empty=%v", err, empty)
	}
	if len(req.GroupBy) != 2 || req.GroupBy[1].Text == false {
		t.Fatalf("req.GroupBy = %+v", req.GroupBy)
	}
	// It executes.
	rows, err := oracle.Table(ft, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Groups) == 0 {
		t.Fatal("no groups")
	}
	// An ungrouped query is a scalar member.
	if m, _, err := (&Query{Op: table.AggCount}).Member(s); err != nil || m.GroupBy != nil {
		t.Fatalf("ungrouped: member %+v, err %v", m, err)
	}
	// Untranslated text condition propagates the error.
	qt := &Query{
		TextConds: []TextCondition{{Column: "store_name", From: "a", To: "a"}},
		GroupBy:   []GroupRef{{Dim: 0, Level: 0}},
		Op:        table.AggCount,
	}
	if _, _, err := qt.Member(s); err == nil {
		t.Fatal("untranslated accepted")
	}
	// Empty translated predicate propagates empty.
	qt.TextConds[0].Translated = true
	qt.TextConds[0].Empty = true
	if _, empty, err := qt.Member(s); err != nil || !empty {
		t.Fatalf("empty propagation: empty=%v err=%v", empty, err)
	}
}

func TestCubeGroupLevels(t *testing.T) {
	q := &Query{GroupBy: []GroupRef{{Dim: 0, Level: 1}, {Dim: 1, Level: 0}}}
	levels, err := q.CubeGroupLevels()
	if err != nil {
		t.Fatal(err)
	}
	want := []cube.GroupLevel{{Dim: 0, Level: 1}, {Dim: 1, Level: 0}}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v", levels)
		}
	}
	q.GroupBy = append(q.GroupBy, GroupRef{Text: true, Column: "c"})
	if _, err := q.CubeGroupLevels(); err == nil {
		t.Fatal("text grouping accepted for cube path")
	}
}

func TestSubCubeBytesEdges(t *testing.T) {
	ft := genTable(t, 200)
	cs, err := cube.BuildSet(ft, []int{0, 1}, 0, cube.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Empty intersection on one dimension: zero-cost CPU answer.
	q := &Query{Conditions: []Condition{
		{Dim: 0, Level: 0, From: 0, To: 0},
		{Dim: 0, Level: 1, From: 30, To: 35}, // disjoint from year 0 (months 0-11)
	}}
	n, ok := q.SubCubeBytes(cs)
	if !ok || n != 0 {
		t.Fatalf("empty-intersection SubCubeBytes = (%d,%v)", n, ok)
	}
	// Grouped query finer than stored cubes: not answerable.
	q2 := &Query{
		Conditions: []Condition{{Dim: 0, Level: 0, From: 0, To: 0}},
		GroupBy:    []GroupRef{{Dim: 0, Level: 1}},
	}
	if _, ok := q2.SubCubeBytes(cs); !ok {
		t.Fatal("level-1 grouping should be answerable with a level-1 cube")
	}
	cs0, _ := cube.BuildSet(ft, []int{0}, 0, cube.Config{})
	if _, ok := q2.SubCubeBytes(cs0); ok {
		t.Fatal("level-1 grouping answerable with only a level-0 cube")
	}
}
