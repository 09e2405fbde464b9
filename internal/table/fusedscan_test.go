package table

import (
	"math/rand"
	"testing"
)

// The fused differential suite: every member of a K-member Plan must
// agree *exactly* — bit-identical values — with the reference kernel
// running that member alone over the same rows, whatever the other
// members are. The kernel visits the same rows in the same ascending order
// per member, so == is the specification.

// fusedCol is one column pick of a compatibility set.
type fusedCol struct {
	text  bool
	tidx  int
	dim   int
	level int
	card  int
}

func randFusedCol(rng *rand.Rand, s *Schema) fusedCol {
	if rng.Intn(4) == 0 {
		return fusedCol{text: true, card: 30}
	}
	d := rng.Intn(len(s.Dimensions))
	l := rng.Intn(len(s.Dimensions[d].Levels))
	return fusedCol{dim: d, level: l, card: s.LevelCardinality(d, l)}
}

// randPredOn draws one predicate of a random shape confined to a fixed
// column — the member-side half of randPred.
func randPredOn(rng *rand.Rand, c fusedCol) RangePredicate {
	var p RangePredicate
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
			p.Or = append(p.Or, CodeRange{From: c, To: d})
		}
	default: // points: IN-list of single codes
		p.From = uint32(rng.Intn(card))
		p.To = p.From
		for i, k := 0, rng.Intn(4); i < k; i++ {
			cc := uint32(rng.Intn(card))
			p.Or = append(p.Or, CodeRange{From: cc, To: cc})
		}
	}
	return p
}

// randFusedFamily draws a compatibility set of 0-3 columns (occasionally
// with a deliberate duplicate, exercising the multiset rule) and k member
// requests each filtering exactly that multiset in shuffled order.
func randFusedFamily(rng *rand.Rand, s *Schema, k int) []ScanRequest {
	nc := rng.Intn(4)
	cols := make([]fusedCol, 0, nc+1)
	for i := 0; i < nc; i++ {
		cols = append(cols, randFusedCol(rng, s))
	}
	if nc > 0 && rng.Intn(6) == 0 {
		cols = append(cols, cols[rng.Intn(len(cols))]) // duplicate column
	}
	reqs := make([]ScanRequest, k)
	for mi := range reqs {
		reqs[mi] = ScanRequest{
			Op:      AggOp(rng.Intn(5)),
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
	tables := diffTables(t)
	rng := rand.New(rand.NewSource(77))
	schema := diffSchema()
	for i := 0; i < 600; i++ {
		ft := tables[rng.Intn(len(tables))]
		k := rng.Intn(6) + 1
		members := make([]Member, k)
		for mi, req := range randFusedFamily(rng, &schema, k) {
			members[mi] = Member{ScanRequest: req}
			// Scalar, cell-asking and GROUP BY members share one pass.
			switch rng.Intn(4) {
			case 0:
				members[mi].Cells = true
			case 1:
				members[mi].GroupBy = randGroupReq(rng, &schema).GroupBy
			}
		}
		fused, err := Bind(ft, members)
		if err != nil {
			t.Fatalf("case %d: Bind: %v", i, err)
		}
		lo, hi := randStripe(rng, ft.Rows())
		hi2 := hi + rng.Intn(ft.Rows()-hi+1)

		states := make([]State, k)
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
				want, err := GroupScanRange(ft, GroupScanRequest{ScanRequest: m.ScanRequest, GroupBy: m.GroupBy}, lo, hi2)
				if err != nil {
					t.Fatal(err)
				}
				if !fused.Keyed(mi) || !groupsEqual(want, states[mi].Groups) {
					fail(want, states[mi].Groups)
				}
				continue
			}
			want, err := ScanRange(ft, m.ScanRequest, lo, hi2)
			if err != nil {
				t.Fatal(err)
			}
			got := states[mi].Scalar
			if fused.Keyed(mi) {
				got = FoldCells(m.Op, states[mi].Groups)
				if states[mi].Scalar != (ScanResult{}) {
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
	ft := diffTables(t)[6] // 3*BatchSize + 213 rows
	rng := rand.New(rand.NewSource(99))
	for _, op := range []AggOp{AggCount, AggMin, AggMax} {
		req := ScanRequest{
			Op:      op,
			Measure: 0,
			Predicates: []RangePredicate{
				{Dim: 0, Level: 1, From: 4, To: 40}, // months
				{Dim: 1, Level: 0, From: 1, To: 5},  // regions
			},
		}
		fused := bind1(t, ft, Member{ScanRequest: req, Cells: true})
		if !fused.Keyed(0) {
			t.Fatalf("op %v: cells not granted", op)
		}
		st, err := rangeFrom(fused, State{}, 0, ft.Rows())
		if err != nil {
			t.Fatal(err)
		}
		cells := st.Groups
		order := CanonicalPredOrder(req.Predicates, nil)
		for trial := 0; trial < 40; trial++ {
			// Narrow each predicate interval to a random sub-interval.
			sub := req
			sub.Predicates = append([]RangePredicate(nil), req.Predicates...)
			for pi := range sub.Predicates {
				p := &sub.Predicates[pi]
				w := int(p.To-p.From) + 1
				a := p.From + uint32(rng.Intn(w))
				b := a + uint32(rng.Intn(int(p.To-a)+1))
				p.From, p.To = a, b
			}
			// Fold only the cells inside the sub-intervals, canonical
			// coordinate order.
			var acc ScanResult
			for _, key := range sortedGroupKeys(cells) {
				coords := UnpackKey(key, len(order))
				in := true
				for ci, pi := range order {
					p := &sub.Predicates[pi]
					if coords[ci] < p.From || coords[ci] > p.To {
						in = false
						break
					}
				}
				if in {
					acc = Merge(op, acc, cells[key])
				}
			}
			want, err := ScanRange(ft, sub, 0, ft.Rows())
			if err != nil {
				t.Fatal(err)
			}
			if acc != want {
				t.Fatalf("op %v trial %d: sub=%+v folded=%+v want=%+v", op, trial, sub.Predicates, acc, want)
			}
		}
	}
}

func sortedGroupKeys(g Groups) []GroupKey {
	keys := make([]GroupKey, 0, len(g))
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

// TestFusedScanCellsEligibility pins the soundness gate: rounding-order-
// sensitive ops and non-pure-range predicates never get cells.
func TestFusedScanCellsEligibility(t *testing.T) {
	ft := diffTables(t)[3]
	cases := []struct {
		name string
		req  ScanRequest
		want bool
	}{
		{"count pure range", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}}}, true},
		{"min two columns", ScanRequest{Op: AggMin, Measure: 0,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}, {Dim: 1, Level: 1, From: 0, To: 30}}}, true},
		{"sum is order-sensitive", ScanRequest{Op: AggSum, Measure: 0,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}}}, false},
		{"avg is order-sensitive", ScanRequest{Op: AggAvg, Measure: 0,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}}}, false},
		{"text predicate", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Text: true, From: 0, To: 5}}}, false},
		{"or predicate", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 1, Or: []CodeRange{{From: 3, To: 3}}}}}, false},
		{"no predicates", ScanRequest{Op: AggCount}, false},
		{"empty range", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 2, To: 1}}}, true},
		{"one column twice", ScanRequest{Op: AggCount,
			Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}, {Dim: 0, Level: 0, From: 1, To: 3}}}, false},
	}
	for _, c := range cases {
		if _, got := CellShape(&c.req, nil); got != c.want {
			t.Errorf("%s: CellShape=%v want %v", c.name, got, c.want)
		}
		if got := bind1(t, ft, Member{ScanRequest: c.req, Cells: true}).Keyed(0); got != c.want {
			t.Errorf("%s: Keyed=%v want %v", c.name, got, c.want)
		}
		if bind1(t, ft, Member{ScanRequest: c.req}).Keyed(0) {
			t.Errorf("%s: cells granted unasked", c.name)
		}
	}
}

func TestFusedScanIncompatible(t *testing.T) {
	ft := diffTables(t)[3]
	if _, err := Bind(ft, nil); err == nil {
		t.Error("empty member set accepted")
	}
	// Different column sets must be rejected.
	reqs := []Member{
		{ScanRequest: ScanRequest{Op: AggCount, Predicates: []RangePredicate{{Dim: 0, Level: 0, From: 0, To: 2}}}},
		{ScanRequest: ScanRequest{Op: AggCount, Predicates: []RangePredicate{{Dim: 1, Level: 0, From: 0, To: 2}}}},
	}
	if _, err := Bind(ft, reqs); err == nil {
		t.Error("mismatched column sets accepted")
	}
	// Same columns, different multiplicity: also incompatible.
	reqs[1].Predicates = []RangePredicate{
		{Dim: 0, Level: 0, From: 0, To: 2}, {Dim: 0, Level: 0, From: 1, To: 2},
	}
	if _, err := Bind(ft, reqs); err == nil {
		t.Error("mismatched column multisets accepted")
	}
	// Validation errors surface from any member.
	reqs[1] = Member{ScanRequest: ScanRequest{Op: AggSum, Measure: 99, Predicates: reqs[0].Predicates}}
	if _, err := Bind(ft, reqs); err == nil {
		t.Error("bad measure accepted")
	}
	// State count is checked per call.
	fused := bind1(t, ft, Member{ScanRequest: ScanRequest{Op: AggCount}})
	if err := fused.RangeInto(0, ft.Rows(), make([]State, 2)); err == nil {
		t.Error("wrong state count accepted")
	}
	if err := fused.RangeInto(-1, 3, make([]State, 1)); err == nil {
		t.Error("negative lo accepted")
	}
}
