package dict

import (
	"fmt"
	"sync"
	"testing"
)

func sortedBase(t *testing.T, entries ...string) *Sorted {
	t.Helper()
	d, err := NewSorted(entries)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAppendStableCodes(t *testing.T) {
	base := sortedBase(t, "apple", "cherry", "plum")
	d, err := NewAppend(base)
	if err != nil {
		t.Fatal(err)
	}
	// Base strings keep their sorted codes.
	for i, s := range []string{"apple", "cherry", "plum"} {
		id, added, err := d.GetOrAdd(s)
		if err != nil || added || id != ID(i) {
			t.Fatalf("GetOrAdd(%q) = (%d, %v, %v), want (%d, false, nil)", s, id, added, err, i)
		}
	}
	// New strings get arrival-order codes after the base, regardless of
	// lexicographic position.
	id, added, err := d.GetOrAdd("banana")
	if err != nil || !added || id != 3 {
		t.Fatalf("GetOrAdd(banana) = (%d, %v, %v)", id, added, err)
	}
	id, added, err = d.GetOrAdd("aardvark")
	if err != nil || !added || id != 4 {
		t.Fatalf("GetOrAdd(aardvark) = (%d, %v, %v)", id, added, err)
	}
	// Re-adding is idempotent.
	id, added, err = d.GetOrAdd("banana")
	if err != nil || added || id != 3 {
		t.Fatalf("re-GetOrAdd(banana) = (%d, %v, %v)", id, added, err)
	}
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
	for want, s := range map[ID]string{0: "apple", 2: "plum", 3: "banana", 4: "aardvark"} {
		if got, ok := d.Decode(want); !ok || got != s {
			t.Fatalf("Decode(%d) = (%q, %v), want %q", want, got, ok, s)
		}
	}
	if _, ok := d.Decode(5); ok {
		t.Fatal("Decode(5) should fail")
	}
	if id, ok := d.Lookup("aardvark"); !ok || id != 4 {
		t.Fatalf("Lookup(aardvark) = (%d, %v)", id, ok)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) should fail")
	}
}

func TestAppendLookupRangeExtra(t *testing.T) {
	base := sortedBase(t, "b", "d", "f")
	d, err := NewAppend(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"e", "a", "g"} { // codes 3, 4, 5
		if _, _, err := d.GetOrAdd(s); err != nil {
			t.Fatal(err)
		}
	}

	// Base interval plus one in-range tail point.
	lo, hi, extra, ok := d.LookupRangeExtra("b", "e")
	if !ok || lo != 0 || hi != 1 || len(extra) != 1 || extra[0] != 3 {
		t.Fatalf("range [b,e]: lo=%d hi=%d extra=%v ok=%v", lo, hi, extra, ok)
	}
	// Tail-only match: inverted base interval carries the points.
	lo, hi, extra, ok = d.LookupRangeExtra("g", "h")
	if !ok || lo > hi == false || len(extra) != 1 || extra[0] != 5 {
		t.Fatalf("range [g,h]: lo=%d hi=%d extra=%v ok=%v", lo, hi, extra, ok)
	}
	// Nothing in range.
	if _, _, _, ok := d.LookupRangeExtra("x", "z"); ok {
		t.Fatal("range [x,z] should be empty")
	}
	if _, _, _, ok := d.LookupRangeExtra("z", "a"); ok {
		t.Fatal("inverted request should be empty")
	}
	// Plain LookupRange covers the base only.
	lo, hi, ok = d.LookupRange("a", "z")
	if !ok || lo != 0 || hi != 2 {
		t.Fatalf("LookupRange base: lo=%d hi=%d ok=%v", lo, hi, ok)
	}
}

func TestAppendNilBase(t *testing.T) {
	d, err := NewAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	id, added, err := d.GetOrAdd("first")
	if err != nil || !added || id != 0 {
		t.Fatalf("GetOrAdd(first) = (%d, %v, %v)", id, added, err)
	}
	lo, hi, extra, ok := d.LookupRangeExtra("a", "z")
	if !ok || lo <= hi || len(extra) != 1 || extra[0] != 0 {
		t.Fatalf("tail-only range: lo=%d hi=%d extra=%v ok=%v", lo, hi, extra, ok)
	}
}

func TestAppendRejectsUnorderedBase(t *testing.T) {
	h, err := NewHash([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAppend(h); err == nil {
		t.Fatal("expected error for non-order-preserving base")
	}
}

func TestAppendConcurrent(t *testing.T) {
	base := sortedBase(t, "base-a", "base-b")
	d, err := NewAppend(base)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Heavy overlap across workers: every string is added by
				// several goroutines, exercising the double-check path.
				s := fmt.Sprintf("s-%03d", (w*perWorker+i)%300)
				if _, _, err := d.GetOrAdd(s); err != nil {
					t.Error(err)
					return
				}
				d.Lookup(s)
				d.Len()
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != 2+300 {
		t.Fatalf("Len = %d, want %d", d.Len(), 302)
	}
	// Every code decodes to a string that looks back up to the same code.
	for id := ID(0); int(id) < d.Len(); id++ {
		s, ok := d.Decode(id)
		if !ok {
			t.Fatalf("Decode(%d) failed", id)
		}
		got, ok := d.Lookup(s)
		if !ok || got != id {
			t.Fatalf("Lookup(Decode(%d)) = (%d, %v)", id, got, ok)
		}
	}
}
