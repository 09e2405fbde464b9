package table

import (
	"bytes"
	"testing"
)

func TestTableSaveLoadRoundTrip(t *testing.T) {
	orig, err := Generate(GenSpec{Schema: smallSchema(), Rows: 700, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != orig.Rows() {
		t.Fatalf("rows %d vs %d", got.Rows(), orig.Rows())
	}
	if got.SizeBytes() != orig.SizeBytes() {
		t.Fatalf("size %d vs %d", got.SizeBytes(), orig.SizeBytes())
	}
	// Every column identical, including derived coarse levels.
	s := orig.Schema()
	for d, dim := range s.Dimensions {
		for l := range dim.Levels {
			for r := 0; r < orig.Rows(); r++ {
				if got.CoordAt(r, d, l) != orig.CoordAt(r, d, l) {
					t.Fatalf("coord (%d,%d,%d) differs", r, d, l)
				}
			}
		}
	}
	for m := range s.Measures {
		for r := 0; r < orig.Rows(); r++ {
			if got.MeasureColumn(m)[r] != orig.MeasureColumn(m)[r] {
				t.Fatalf("measure (%d,%d) differs", m, r)
			}
		}
	}
	for i := range s.Texts {
		for r := 0; r < orig.Rows(); r++ {
			if got.TextColumn(i).At(r) != orig.TextColumn(i).At(r) {
				t.Fatalf("text (%d,%d) differs", i, r)
			}
		}
	}
	// Dictionaries round-trip: same lookups.
	od, _ := orig.Dicts().Get("city")
	gd, ok := got.Dicts().Get("city")
	if !ok || gd.Len() != od.Len() {
		t.Fatal("dictionary lost")
	}
	for id := 0; id < od.Len(); id++ {
		a, _ := od.Decode(uint32(id))
		b, _ := gd.Decode(uint32(id))
		if a != b {
			t.Fatalf("dict entry %d: %q vs %q", id, a, b)
		}
	}
	// Scans agree.
	req := ScanRequest{
		Predicates: []RangePredicate{{Dim: 0, Level: 1, From: 0, To: 11}},
		Measure:    0, Op: AggSum,
	}
	a, _ := Scan(orig, req)
	b, _ := Scan(got, req)
	if a != b {
		t.Fatalf("scan differs: %+v vs %+v", a, b)
	}
}

func TestTableLoadRejectsCorruption(t *testing.T) {
	orig, _ := Generate(GenSpec{Schema: smallSchema(), Rows: 50, Seed: 62})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload byte near the end (measure data region).
	tampered := append([]byte(nil), data...)
	tampered[len(tampered)-20] ^= 0x01
	if _, err := Load(bytes.NewReader(tampered)); err == nil {
		t.Fatal("corrupted payload accepted")
	}
	// Truncation.
	if _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated file accepted")
	}
	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[4] = 'X' // first magic byte after the length prefix
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Empty input.
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTableSaveLoadNoTextColumns(t *testing.T) {
	schema := Schema{
		Dimensions: []DimensionSpec{{Name: "d", Levels: []LevelSpec{{Name: "l", Cardinality: 4}}}},
		Measures:   []MeasureSpec{{Name: "m"}},
	}
	orig, err := Generate(GenSpec{Schema: schema, Rows: 20, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 20 || got.Dicts() != nil {
		t.Fatalf("rows=%d dicts=%v", got.Rows(), got.Dicts())
	}
}
