package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hybridolap/internal/gpusim"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// unitsCorpus is a fixed query corpus over PaperSchema: every op on both
// measures, scalar and grouped (dimension and text keys), with predicates
// a level-0 or level-1 cube answers, ones only a scan answers, and text
// predicates only the GPU answers.
func unitsCorpus() []string {
	wheres := []string{
		"",
		" WHERE time.year = 3",
		" WHERE time.month BETWEEN 2 AND 29 AND geo.country BETWEEN 1 AND 12",
		" WHERE product.brand BETWEEN 10 AND 300 AND time.month BETWEEN 2 AND 29",
		" WHERE geo.city BETWEEN 5 AND 400 AND product.item BETWEEN 0 AND 1500",
		" WHERE store_name BETWEEN 'store_name-000100' AND 'store_name-000300'",
		" WHERE customer_city = 'customer_city-000042' AND time.year BETWEEN 1 AND 6",
	}
	groups := []string{"", " GROUP BY time.year", " GROUP BY geo.country, product.sector", " GROUP BY store_name"}
	var out []string
	for _, agg := range []string{"sum(sales)", "sum(quantity)", "count(*)", "min(sales)", "min(quantity)", "max(sales)", "max(quantity)", "avg(sales)", "avg(quantity)"} {
		for _, w := range wheres {
			for _, g := range groups {
				out = append(out, "SELECT "+agg+w+g)
			}
		}
	}
	return out
}

// unitsDigest answers the corpus on the CPU, where the cube set can, and
// on GPU partition 0, and hashes every answer's Rows, group keys and row
// counts, and the value bits of every min and max.
func unitsDigest(t *testing.T, s *System) (uint64, int) {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	n := 0
	for _, sql := range unitsCorpus() {
		q, err := query.Parse(sql, s.Config().Table.Schema())
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		selected := q.Op == table.AggMin || q.Op == table.AggMax
		putAnswer := func(a gpusim.Answer) {
			n++
			put(uint64(a.Result.Rows))
			if selected {
				put(math.Float64bits(a.Result.Value))
			}
			put(uint64(len(a.Groups)))
			for _, g := range a.Groups {
				put(uint64(len(g.Keys)))
				for _, k := range g.Keys {
					put(uint64(k))
				}
				put(uint64(g.Rows))
				if selected {
					put(math.Float64bits(g.Value))
				}
			}
		}
		if cpuCanAnswer(q, s.cfg.Cubes) {
			a, err := s.cpuAnswer(q, s.pin())
			if err == nil {
				put(1)
				putAnswer(a)
			} else {
				put(2)
			}
		}
		tq := q.Clone()
		if tq.NeedsTranslation() {
			if _, err := query.Translate(tq, s.Dicts()); err != nil {
				t.Fatal(err)
			}
		}
		a, err := s.gpuAnswer(tq, 0, s.pin())
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		put(3)
		putAnswer(a)
	}
	return h.Sum64(), n
}

// TestDecimalMeasuresKeepAnswers pins what storing measures as decimal
// units kept: recorded on the float64 table over 100K PaperSchema rows,
// every answer's rows and groups are unchanged, and every min/max value is
// the float64 one mapped through the cent floor x ↦ ⌊x·100⌋/100, which is
// monotone and so commutes with min and max. (Sums are not pinned: a sum
// of floors is not the floor of a sum.)
func TestDecimalMeasuresKeepAnswers(t *testing.T) {
	const want, answers = 0xf0416d371f3b9d41, 297
	s := testSystem(t, func(spec *SetupSpec) { spec.Rows = 100_000 })
	if got, n := unitsDigest(t, s); got != want || n != answers {
		t.Fatalf("digest %#x over %d answers, want %#x over %d", got, n, uint64(want), answers)
	}
}
