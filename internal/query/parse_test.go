package query

import (
	"reflect"
	"testing"

	"hybridolap/internal/table"
)

// parseErrorCases are malformed (or schema-invalid) inputs with their exact
// error strings, recorded on the token-slice lexer this scanner replaced.
// The scanner must reproduce them byte for byte: a lexical error anywhere
// still outranks a syntax error before it.
var parseErrorCases = []struct{ in, want string }{
	{"SELECT sum(sales) WHERE store_name = 'abc", "query: unterminated string literal at 37"},
	{"SELECT sum(sales) WHERE time.year = 1 # x", "query: unexpected character '#' at 38"},
	{"SELECT sum(sales WHERE time.year = 1", "query: expected \")\" at 17, got \"WHERE\""},
	{"SELECT count(*) WHERE store_name IN ()", "query: expected string literal at 37, got \")\""},
	{"SELECT sum(sales) WHERE time.year = 1 AND", "query: expected column reference at 41"},
	{"SELECT sum(sales) WHERE time.week = 1", "query: unknown level \"week\" in dimension \"time\""},
	{"SELECT sum(sales) WHERE time.year = 99999999999", "query: bad number \"99999999999\": strconv.ParseUint: parsing \"99999999999\": value out of range"},
	{"SELECT sum(sales) GROUP BY geo.region,", "query: expected GROUP BY column at 38"},
	{"", "query: expected SELECT at 0"},
	{"SELECT median(sales)", "query: unknown aggregate \"median\""},
	{"SELECT sum(*)", "query: only count accepts *"},
	{"SELECT sum(price)", "query: unknown measure \"price\""},
	{"SELECT sum(sales) WHERE planet.x = 1", "query: unknown dimension \"planet\""},
	{"SELECT sum(sales) WHERE store_name = 5", "query: expected string literal at 37, got \"5\""},
	{"SELECT sum(sales) WHERE time.year BETWEEN 1 OR 3", "query: expected AND in BETWEEN at 44"},
	{"SELECT sum(sales) WHERE time.year < 3", "query: unexpected character '<' at 34"},
	{"SELECT sum(sales) WHERE time.year LIKE 3", "query: expected = or BETWEEN at 34"},
	{"SELECT sum(sales) WHERE nope = 'x'", "query: \"nope\" is not a text column (dimension conditions use dim.level)"},
	{"SELECT sum(sales) GROUP geo.region", "query: expected BY after GROUP at 24"},
	{"SELECT sum(sales) GROUP BY planet.x", "query: unknown dimension \"planet\""},
	{"SELECT sum(sales) extra", "query: unexpected \"extra\" at 18"},
	{"SELECT sum(sales) WHERE store_name IN ('a' 'b')", "query: expected , or ) in IN list at 43, got \"b\""},
	{"SELECT sum(sales) WHERE time.year = 3 AND time.year = 4", "query: duplicate condition on dimension \"time\" level 0"},
	{"SELECT sum(sales) WHERE time.year BETWEEN 5 AND 2", "query: inverted range [5,2] on dimension \"time\""},
	{"SELECT sum(sales) WHERE time.year = 8", "query: range [8,8] exceeds cardinality 8 of \"time\".\"year\""},
	{"SELECT sum(sales) WHERE store_name BETWEEN 'z' AND 'a'", "query: inverted text range [\"z\",\"a\"] on \"store_name\""},
	{"SELECT median(sales) WHERE x = 'unterminated", "query: unterminated string literal at 31"},
	{"SELECT sum(sales) WHERE time.year = 'it''s'", "query: expected number at 36, got \"it's\""},
	{"SELECT sum(sales) WHERE time. = 1", "query: expected level name at 30"},
	{"SELECT sum(sales) WHERE (", "query: expected column reference at 24"},
	{"select SUM(sales) where TIME.year = 1", "query: unknown dimension \"TIME\""},
	{"SELECT sum(sales) GROUP BY store_name, nope", "query: \"nope\" is not a text column (dimension groupings use dim.level)"},
	{"SELECT sum(sales) GROUP BY time.week", "query: unknown level \"week\" in dimension \"time\""},
	{"SELECT", "query: expected aggregate function at 6"},
	{"SELECT sum", "query: expected \"(\" at 10, got \"\""},
	{"SELECT count(*) WHERE store_name IN ('a',)", "query: expected string literal at 41, got \")\""},
	{"SELECT sum(sales) WHERE time.year = -1", "query: expected number at 36, got \"-1\""},
	{"SELECT sum(sales) GROUP BY time.", "query: expected level name at 32"},
	{"SELECT sum(sales) GROUP BY 'x'", "query: expected GROUP BY column at 27"},
	{"SELECT sum(sales) WHERE store_name IN 'a'", "query: expected \"(\" at 38, got \"a\""},
	{"SELECT sum(sales) WHERE store_name BETWEEN 'a' 'b'", "query: expected AND in BETWEEN at 47"},
	{"SELECT sum(sales) WHERE time.year BETWEEN 1 AND 'b'", "query: expected number at 48, got \"b\""},
	{"SELECT sum(sales) WHERE time.year = 1 AND AND", "query: \"AND\" is not a text column (dimension conditions use dim.level)"},
	{"SELECT sum(sales) GROUP BY geo.region geo.country", "query: unexpected \"geo\" at 38"},
	{"SELECT 5(sales)", "query: expected aggregate function at 7"},
	{"FROM sum(sales)", "query: expected SELECT at 0"},
	{"SELECT sum(sales) WHERE store_name = 'a'' AND time.year = 1", "query: unterminated string literal at 37"},
	{"SELECT sum(sales) WHERE time.year = 1 ;", "query: unexpected character ';' at 38"},
	{"SELECT sum(sales) WHERE x = \x00", "query: unexpected character '\\x00' at 28"},
	{"SELECT sum(sales) WHERE time.year BETWEEN 1 AND 99999999999 AND @", "query: unexpected character '@' at 64"},
}

func TestParseErrorStrings(t *testing.T) {
	s := table.PaperSchema()
	for _, c := range parseErrorCases {
		_, err := Parse(c.in, &s)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q)\n  err  %v\n  want %s", c.in, err, c.want)
		}
	}
}

// TestParseNamesNonASCIICharacter: a character no token starts with is
// named by the rune it starts, at its byte offset — not by its first byte
// read as a rune (which named 'ſ', 0xC5 0xBF, as 'Å').
func TestParseNamesNonASCIICharacter(t *testing.T) {
	s := table.PaperSchema()
	for _, c := range []struct{ in, want string }{
		{"SELECT ſum(sales)", "query: unexpected character 'ſ' at 7"},
		{"SELECT sum(sales) WHERE time.year = 1 AND 日付 = 'x'", "query: unexpected character '日' at 42"},
		{"SELECT sum(sales) \xff", "query: unexpected character '\ufffd' at 18"},
	} {
		_, err := Parse(c.in, &s)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q)\n  err  %v\n  want %s", c.in, err, c.want)
		}
	}
}

// FuzzParse: whatever parses renders back (Query.SQL) to text that parses
// to the same query. A count renders as count(*), so its measure — which
// no count reads — is not compared.
func FuzzParse(f *testing.F) {
	s := table.PaperSchema()
	ft, err := table.Generate(table.GenSpec{Schema: s, Rows: 200, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	g, err := NewGenerator(GenConfig{
		Schema: ft.Schema(), Seed: 11, Dicts: ft.Dicts(),
		TextProb: 0.5, TextRangeProb: 0.3, TextInProb: 0.3, MissProb: 0.2,
		Ops: []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg},
	})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		q := g.Next()
		if i%3 == 0 {
			q.GroupBy = []GroupRef{{Dim: i % 3, Level: 0}, {Text: true, Column: "store_name"}}
		}
		sql, err := q.SQL(&s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sql)
	}
	for _, sql := range []string{
		// The dashboard family: time.day x geo.state, an anchor and a view.
		"SELECT count(*) WHERE time.day BETWEEN 0 AND 255 AND geo.state BETWEEN 0 AND 127",
		"SELECT max(quantity) WHERE time.day BETWEEN 17 AND 140 AND geo.state = 9",
		"select AVG(sales) where TIME.day between 3 and 3 and geo.state between 1 and 2",
		"SELECT sum(sales) WHERE customer_city IN ('it''s', 'x') GROUP BY product.sector, store_name",
	} {
		f.Add(sql)
	}
	for _, c := range parseErrorCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in, &s)
		if err != nil {
			return
		}
		sql, err := q.SQL(&s)
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, which does not render: %v", in, q, err)
		}
		back, err := Parse(sql, &s)
		if err != nil {
			t.Fatalf("Parse(%q) = %+v renders as %q, which does not parse: %v", in, q, sql, err)
		}
		if q.Op == table.AggCount {
			q.Measure, back.Measure = 0, 0
		}
		if !reflect.DeepEqual(q, back) {
			t.Fatalf("round trip of %q through %q:\n  first  %+v\n  second %+v", in, sql, q, back)
		}
	})
}
