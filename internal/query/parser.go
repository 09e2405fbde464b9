package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"hybridolap/internal/table"
)

// Parse reads one query in a compact SQL-like surface syntax:
//
//	SELECT <agg>(<measure>) [WHERE <cond> [AND <cond>]...]
//
// where <agg> is sum|count|min|max|avg (count also accepts *), a dimension
// condition is written against a "dim.level" column reference,
//
//	time.month BETWEEN 3 AND 7
//	geo.region = 2
//
// and a text condition against a bare text-column name with string
// literals:
//
//	store_name = 'ACME #042'
//	customer_city BETWEEN 'aachen' AND 'boston'
//
// Keywords are case-insensitive; identifiers are case-sensitive. The parsed
// query is validated against the schema.
func Parse(input string, s *table.Schema) (*Query, error) {
	p := parser{sc: scanner{src: input}, schema: s}
	p.next() // the first lookahead
	q, err := p.parseQuery()
	if err != nil {
		// A lexical error anywhere in the input outranks a syntax error, as
		// if the whole input were tokenised before it is parsed.
		for p.tok.kind != tokEOF {
			p.next()
		}
	}
	if p.sc.bad.kind != tokEOF {
		return nil, p.sc.lexError()
	}
	if err != nil {
		return nil, err
	}
	if err := q.Validate(s); err != nil {
		return nil, err
	}
	return q, nil
}

type tokKind uint8

const (
	tokEOF       tokKind = iota
	tokIdent             // also a keyword: keywords are not reserved
	tokNumber            // decimal digits
	tokString            // a literal without '' escapes: text is its value
	tokEscString         // a literal with '' escapes: text is its raw body
	tokSymbol            // ( ) . = * ,
	// The lexical errors; the scanner ends at either.
	tokBadChar      // a byte no token starts with
	tokUnterminated // a literal without its closing quote
)

// token is one lexeme; text is a substring of the input, never a copy.
type token struct {
	text string
	pos  int
	kind tokKind
}

// value returns the token's text, with a literal's doubled quotes undone.
func (t token) value() string {
	if t.kind == tokEscString {
		return strings.ReplaceAll(t.text, "''", "'")
	}
	return t.text
}

// is reports whether the token is the keyword kw, which is lower-case
// ASCII letters; keywords match ASCII case-insensitively (identifiers are
// ASCII, so no other folding applies).
func (t token) is(kw string) bool {
	if t.kind != tokIdent || len(t.text) != len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		// |0x20 lower-cases an ASCII letter and maps no other byte to one.
		if t.text[i]|0x20 != kw[i] {
			return false
		}
	}
	return true
}

// isSym reports whether the token is the one-byte symbol c.
func (t token) isSym(c byte) bool { return t.kind == tokSymbol && t.text[0] == c }

// scanner is the lexer, pulled one token at a time by the parser: no token
// slice is built.
type scanner struct {
	src string
	off int
	// bad is the lexical error the scan ended at (kind tokEOF: none).
	bad token
}

// next scans the token at or after s.off and moves past it. A lexical error
// is recorded in s.bad and ends the scan: every later call returns EOF.
//
//olaplint:noalloc
func (s *scanner) next() token {
	src, i := s.src, s.off
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i == len(src) {
		s.off = i
		return token{pos: i, kind: tokEOF}
	}
	c, j := src[i], i+1
	var kind tokKind
	switch {
	case c == '(' || c == ')' || c == '.' || c == '=' || c == '*' || c == ',':
		kind = tokSymbol
	case c == '\'':
		kind = tokString
		for ; ; j++ {
			if j == len(src) {
				return s.fail(token{pos: i, kind: tokUnterminated})
			}
			if src[j] == '\'' {
				if j+1 < len(src) && src[j+1] == '\'' { // '' escapes a quote
					kind = tokEscString
					j++
					continue
				}
				break
			}
		}
		s.off = j + 1
		return token{text: src[i+1 : j], pos: i, kind: kind}
	case c >= '0' && c <= '9':
		kind = tokNumber
		for j < len(src) && src[j] >= '0' && src[j] <= '9' {
			j++
		}
	case isIdentByte(c):
		kind = tokIdent
		for j < len(src) && isIdentByte(src[j]) {
			j++
		}
	default:
		return s.fail(token{pos: i, kind: tokBadChar})
	}
	s.off = j
	return token{text: src[i:j], pos: i, kind: kind}
}

// fail records a lexical error and ends the scan.
//
//olaplint:noalloc
func (s *scanner) fail(bad token) token {
	s.bad, s.off = bad, len(s.src)
	return bad
}

// lexError formats the lexical error the scan ended at. A bad character is
// named by the rune it starts, at its byte offset.
func (s *scanner) lexError() error {
	if s.bad.kind == tokUnterminated {
		return fmt.Errorf("query: unterminated string literal at %d", s.bad.pos)
	}
	r, _ := utf8.DecodeRuneInString(s.src[s.bad.pos:])
	return fmt.Errorf("query: unexpected character %q at %d", r, s.bad.pos)
}

//olaplint:noalloc
func isIdentByte(c byte) bool { return identBytes[c] }

// identBytes marks the bytes an identifier is made of: ASCII letters and
// digits, '_' and '-'.
var identBytes = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '_' || c == '-' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
	}
	return t
}()

type parser struct {
	sc     scanner
	tok    token // the lookahead
	schema *table.Schema
}

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token { t := p.tok; p.tok = p.sc.next(); return t }

func (p *parser) expectSymbol(sym byte) error {
	t := p.next()
	if !t.isSym(sym) {
		return fmt.Errorf("query: expected %q at %d, got %q", string(sym), t.pos, t.value())
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if t := p.next(); !t.is("select") {
		return nil, fmt.Errorf("query: expected SELECT at %d", t.pos)
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("query: expected aggregate function at %d", t.pos)
	}
	op, ok := aggOf(t)
	if !ok {
		return nil, fmt.Errorf("query: unknown aggregate %q", t.text)
	}
	if err := p.expectSymbol('('); err != nil {
		return nil, err
	}
	q := &Query{Op: op}
	arg := p.next()
	switch {
	case arg.isSym('*'):
		if op != table.AggCount {
			return nil, fmt.Errorf("query: only count accepts *")
		}
	case arg.kind == tokIdent:
		m := p.schema.MeasureIndex(arg.text)
		if m < 0 {
			return nil, fmt.Errorf("query: unknown measure %q", arg.text)
		}
		q.Measure = m
	default:
		return nil, fmt.Errorf("query: expected measure at %d", arg.pos)
	}
	if err := p.expectSymbol(')'); err != nil {
		return nil, err
	}
	if p.peek().is("where") {
		p.next()
		for {
			if err := p.parseCond(q); err != nil {
				return nil, err
			}
			if !p.peek().is("and") {
				break
			}
			p.next()
		}
	}
	if p.peek().is("group") {
		p.next()
		if t := p.next(); !t.is("by") {
			return nil, fmt.Errorf("query: expected BY after GROUP at %d", t.pos)
		}
		for {
			if err := p.parseGroupRef(q); err != nil {
				return nil, err
			}
			if !p.peek().isSym(',') {
				break
			}
			p.next()
		}
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("query: unexpected %q at %d", t.value(), t.pos)
	}
	return q, nil
}

// aggOf returns the aggregate a function name denotes.
func aggOf(name token) (table.AggOp, bool) {
	for op := table.AggSum; op <= table.AggAvg; op++ {
		if name.is(op.String()) {
			return op, true
		}
	}
	return 0, false
}

// parseLevel reads ".level" after a dimension name and resolves the pair.
func (p *parser) parseLevel(name token) (dim, level int, err error) {
	p.next() // the '.'
	lvlTok := p.next()
	if lvlTok.kind != tokIdent {
		return 0, 0, fmt.Errorf("query: expected level name at %d", lvlTok.pos)
	}
	d := p.schema.DimIndex(name.text)
	if d < 0 {
		return 0, 0, fmt.Errorf("query: unknown dimension %q", name.text)
	}
	for i, l := range p.schema.Dimensions[d].Levels {
		if l.Name == lvlTok.text {
			return d, i, nil
		}
	}
	return 0, 0, fmt.Errorf("query: unknown level %q in dimension %q", lvlTok.text, name.text)
}

// parseGroupRef reads one GROUP BY column: dim.level or a text column.
func (p *parser) parseGroupRef(q *Query) error {
	name := p.next()
	if name.kind != tokIdent {
		return fmt.Errorf("query: expected GROUP BY column at %d", name.pos)
	}
	if p.peek().isSym('.') {
		d, lvl, err := p.parseLevel(name)
		if err != nil {
			return err
		}
		q.GroupBy = append(q.GroupBy, GroupRef{Dim: d, Level: lvl})
		return nil
	}
	if p.schema.TextIndex(name.text) < 0 {
		return fmt.Errorf("query: %q is not a text column (dimension groupings use dim.level)", name.text)
	}
	q.GroupBy = append(q.GroupBy, GroupRef{Text: true, Column: name.text})
	return nil
}

func (p *parser) parseCond(q *Query) error {
	name := p.next()
	if name.kind != tokIdent {
		return fmt.Errorf("query: expected column reference at %d", name.pos)
	}
	// Dimension reference: dim.level
	if p.peek().isSym('.') {
		d, lvl, err := p.parseLevel(name)
		if err != nil {
			return err
		}
		from, to, err := p.parseNumericPred()
		if err != nil {
			return err
		}
		if q.Conditions == nil {
			// Sized for one condition per dimension, the usual most.
			q.Conditions = make([]Condition, 0, len(p.schema.Dimensions))
		}
		q.Conditions = append(q.Conditions, Condition{Dim: d, Level: lvl, From: from, To: to})
		return nil
	}
	// Text column reference.
	if p.schema.TextIndex(name.text) < 0 {
		return fmt.Errorf("query: %q is not a text column (dimension conditions use dim.level)", name.text)
	}
	if p.peek().is("in") {
		p.next()
		lits, err := p.parseInList()
		if err != nil {
			return err
		}
		q.TextConds = append(q.TextConds, TextCondition{Column: name.text, In: lits})
		return nil
	}
	from, to, err := p.parseStringPred()
	if err != nil {
		return err
	}
	q.TextConds = append(q.TextConds, TextCondition{Column: name.text, From: from, To: to})
	return nil
}

// parseInList reads ('a', 'b', ...) after IN.
func (p *parser) parseInList() ([]string, error) {
	if err := p.expectSymbol('('); err != nil {
		return nil, err
	}
	var lits []string
	for {
		v, err := p.parseString()
		if err != nil {
			return nil, err
		}
		lits = append(lits, v)
		t := p.next()
		if t.isSym(',') {
			continue
		}
		if t.isSym(')') {
			return lits, nil
		}
		return nil, fmt.Errorf("query: expected , or ) in IN list at %d, got %q", t.pos, t.value())
	}
}

func (p *parser) parseNumericPred() (uint32, uint32, error) {
	t := p.next()
	switch {
	case t.isSym('='):
		v, err := p.parseNumber()
		if err != nil {
			return 0, 0, err
		}
		return v, v, nil
	case t.is("between"):
		lo, err := p.parseNumber()
		if err != nil {
			return 0, 0, err
		}
		if t := p.next(); !t.is("and") {
			return 0, 0, fmt.Errorf("query: expected AND in BETWEEN at %d", t.pos)
		}
		hi, err := p.parseNumber()
		if err != nil {
			return 0, 0, err
		}
		return lo, hi, nil
	default:
		return 0, 0, fmt.Errorf("query: expected = or BETWEEN at %d", t.pos)
	}
}

func (p *parser) parseStringPred() (string, string, error) {
	t := p.next()
	switch {
	case t.isSym('='):
		v, err := p.parseString()
		if err != nil {
			return "", "", err
		}
		return v, v, nil
	case t.is("between"):
		lo, err := p.parseString()
		if err != nil {
			return "", "", err
		}
		if t := p.next(); !t.is("and") {
			return "", "", fmt.Errorf("query: expected AND in BETWEEN at %d", t.pos)
		}
		hi, err := p.parseString()
		if err != nil {
			return "", "", err
		}
		return lo, hi, nil
	default:
		return "", "", fmt.Errorf("query: expected = or BETWEEN at %d", t.pos)
	}
}

func (p *parser) parseNumber() (uint32, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("query: expected number at %d, got %q", t.pos, t.value())
	}
	v, err := strconv.ParseUint(t.text, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("query: bad number %q: %v", t.text, err)
	}
	return uint32(v), nil
}

func (p *parser) parseString() (string, error) {
	t := p.next()
	if t.kind != tokString && t.kind != tokEscString {
		return "", fmt.Errorf("query: expected string literal at %d, got %q", t.pos, t.value())
	}
	return t.value(), nil
}
