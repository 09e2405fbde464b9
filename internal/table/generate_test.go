package table

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"hybridolap/internal/dict"
)

// tableDigests are the FNV-64a digests of everything a table stores, in
// two parts: codes — the row count, each dimension's finest column and each
// text column as its width and codes, and each dictionary's strings in code
// order — and units, each measure column's int32 units.
func tableDigests(t *testing.T, ft *FactTable) (codes, units uint64) {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putCodes := func(c Codes) {
		put(uint64(c.Width()))
		put(uint64(c.Len()))
		for r := 0; r < c.Len(); r++ {
			put(uint64(c.At(r)))
		}
	}
	put(uint64(ft.Rows()))
	for _, col := range ft.dims {
		putCodes(col)
	}
	for i, ts := range ft.schema.Texts {
		putCodes(ft.texts[i])
		n := ft.Dicts().DictLen(ts.Name)
		put(uint64(n))
		for id := 0; id < n; id++ {
			s, err := ft.Dicts().Decode(ts.Name, dict.ID(id))
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(len(s)))
			h.Write([]byte(s))
		}
	}
	codes = h.Sum64()
	h = fnv.New64a()
	for _, col := range ft.measures {
		put(uint64(len(col)))
		for _, c := range col {
			put(uint64(uint32(c)))
		}
	}
	return codes, h.Sum64()
}

// TestGenerateDigest pins what Generate builds, byte for byte:
// PaperSchema at several sizes and seeds, a custom pool whose duplicate
// strings must share one code, a pool drawn widely enough that text codes
// need 32 bits, and a non-default MeasureMax. Both parts were recorded on
// the float64 generator: the codes and dictionaries as it stored them,
// the measures as ⌊v·100⌋ of each value v it drew — which is what the
// decimal generator stores at PaperSchema's scale 2, with the same draws.
func TestGenerateDigest(t *testing.T) {
	big := make([]string, 200_000)
	for i := range big {
		big[i] = fmt.Sprintf("v%07d", (i*7919)%len(big))
	}
	type tc struct {
		name        string
		spec        GenSpec
		codes, meas uint64
	}
	cases := []tc{
		{"dup-pool", GenSpec{Schema: PaperSchema(), Rows: 1000, Seed: 3,
			TextPools: [][]string{{"b", "a", "b", "c", "a"}, {"x", "x"}}}, 0xcd3ac218bf13a14, 0x6b445758db597799},
		{"wide-codes", GenSpec{Schema: PaperSchema(), Rows: 100_000, Seed: 5,
			TextPools: [][]string{big, nil}}, 0x9bc585e3ce1aecee, 0x758c5ed1b3505ec7},
		{"measure-max", GenSpec{Schema: PaperSchema(), Rows: 1000, Seed: 2, MeasureMax: 7.5}, 0x9cefd4fdf48eae44, 0x3f9848dd87462bcd},
	}
	paper := [][2]uint64{
		// seed 1: rows 0, 1, 1000, 100000
		{0xd2fd5ff77a712567, 0x88201fb960ff6465}, {0xe975a84d19ee2a0, 0x62430d03161b6674},
		{0x223e59fd1034aa35, 0x2d90dda6f786cf8b}, {0x27803a6315f1648a, 0xf910fd06cc69d485},
		// seed 7
		{0xd2fd5ff77a712567, 0x88201fb960ff6465}, {0x16058cf290648105, 0x8985f2d578c42c2},
		{0xba04d3acdc1f7c79, 0x50a0a3cab0e9eabe}, {0xa1130c0af7ccedcc, 0xc8e2d70c019a41ad},
	}
	for si, seed := range []int64{1, 7} {
		for ri, rows := range []int{0, 1, 1000, 100_000} {
			want := paper[4*si+ri]
			cases = append(cases, tc{fmt.Sprintf("paper/seed=%d/rows=%d", seed, rows),
				GenSpec{Schema: PaperSchema(), Rows: rows, Seed: seed}, want[0], want[1]})
		}
	}
	for _, c := range cases {
		ft, err := Generate(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		codes, meas := tableDigests(t, ft)
		if codes != c.codes {
			t.Errorf("%s: codes digest %#x, want %#x", c.name, codes, c.codes)
		}
		if meas != c.meas {
			t.Errorf("%s: measure digest %#x, want %#x", c.name, meas, c.meas)
		}
		switch c.name {
		case "wide-codes":
			if w := ft.TextColumn(0).Width(); w != 4 {
				t.Errorf("%s: text codes %d bytes wide, want 4", c.name, w)
			}
		case "dup-pool":
			if n := ft.Dicts().DictLen("store_name"); n != 3 {
				t.Errorf("%s: %d distinct strings, want 3", c.name, n)
			}
		}
	}
}
