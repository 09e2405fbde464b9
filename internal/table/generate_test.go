package table

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hybridolap/internal/dict"
)

// tableDigest is the FNV-64a digest of everything a table stores: the row
// count, each dimension's finest column and each text column as its width
// and codes, each measure's bits, and each dictionary's strings in code
// order.
func tableDigest(t *testing.T, ft *FactTable) uint64 {
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
	for _, col := range ft.measures {
		put(uint64(len(col)))
		for _, v := range col {
			put(math.Float64bits(v))
		}
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
	return h.Sum64()
}

// TestGenerateDigest pins what Generate builds, byte for byte, to the
// digests recorded when the row-at-a-time generator was the reference:
// PaperSchema at several sizes and seeds, a custom pool whose duplicate
// strings must share one code, a pool drawn widely enough that text codes
// need 32 bits, and a non-default MeasureMax.
func TestGenerateDigest(t *testing.T) {
	big := make([]string, 200_000)
	for i := range big {
		big[i] = fmt.Sprintf("v%07d", (i*7919)%len(big))
	}
	type tc struct {
		name string
		spec GenSpec
		want uint64
	}
	cases := []tc{
		{"dup-pool", GenSpec{Schema: PaperSchema(), Rows: 1000, Seed: 3,
			TextPools: [][]string{{"b", "a", "b", "c", "a"}, {"x", "x"}}}, 0xb72f299025deb471},
		{"wide-codes", GenSpec{Schema: PaperSchema(), Rows: 100_000, Seed: 5,
			TextPools: [][]string{big, nil}}, 0x9c156ee7202d52c2},
		{"measure-max", GenSpec{Schema: PaperSchema(), Rows: 1000, Seed: 2, MeasureMax: 7.5}, 0xf99d16a4631a338c},
	}
	paper := []uint64{
		// seed 1: rows 0, 1, 1000, 100000
		0x4d0e85fcab4bbf27, 0xae593382053bce3d, 0x6d45511f4bec8281, 0xd6a17c5abc8d231d,
		// seed 7
		0x4d0e85fcab4bbf27, 0x75fb39b5687548da, 0xe3f867bb3e553b21, 0xe163c0b1f9132231,
	}
	for si, seed := range []int64{1, 7} {
		for ri, rows := range []int{0, 1, 1000, 100_000} {
			cases = append(cases, tc{fmt.Sprintf("paper/seed=%d/rows=%d", seed, rows),
				GenSpec{Schema: PaperSchema(), Rows: rows, Seed: seed}, paper[4*si+ri]})
		}
	}
	for _, c := range cases {
		ft, err := Generate(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := tableDigest(t, ft); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
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
