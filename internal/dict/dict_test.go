package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

var sampleWords = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
	"golf", "hotel", "india", "juliet", "kilo", "lima",
}

func sortedSample() []string {
	s := make([]string, len(sampleWords))
	copy(s, sampleWords)
	sort.Strings(s)
	return s
}

// buildAll constructs every dictionary kind from the same sorted input.
func buildAll(t *testing.T, sorted []string) map[Kind]Dictionary {
	t.Helper()
	out := make(map[Kind]Dictionary)
	var err error
	if out[KindSorted], err = NewSorted(sorted); err != nil {
		t.Fatalf("NewSorted: %v", err)
	}
	if out[KindHash], err = NewHash(sorted); err != nil {
		t.Fatalf("NewHash: %v", err)
	}
	if out[KindTrie], err = NewTrie(sorted); err != nil {
		t.Fatalf("NewTrie: %v", err)
	}
	if out[KindLinear], err = NewLinear(sorted); err != nil {
		t.Fatalf("NewLinear: %v", err)
	}
	return out
}

func TestAllKindsAgreeOnCodes(t *testing.T) {
	sorted := sortedSample()
	dicts := buildAll(t, sorted)
	for kind, d := range dicts {
		if d.Len() != len(sorted) {
			t.Errorf("%v: Len = %d, want %d", kind, d.Len(), len(sorted))
		}
		for i, s := range sorted {
			id, ok := d.Lookup(s)
			if !ok || id != ID(i) {
				t.Errorf("%v: Lookup(%q) = (%d,%v), want (%d,true)", kind, s, id, ok, i)
			}
			back, ok := d.Decode(ID(i))
			if !ok || back != s {
				t.Errorf("%v: Decode(%d) = (%q,%v), want (%q,true)", kind, i, back, ok, s)
			}
		}
	}
}

func TestLookupAbsent(t *testing.T) {
	dicts := buildAll(t, sortedSample())
	for kind, d := range dicts {
		for _, s := range []string{"", "zzz", "alph", "alphaa", "ALPHA"} {
			if id, ok := d.Lookup(s); ok {
				t.Errorf("%v: Lookup(%q) unexpectedly found id %d", kind, s, id)
			}
		}
	}
}

func TestDecodeInvalid(t *testing.T) {
	dicts := buildAll(t, sortedSample())
	for kind, d := range dicts {
		if _, ok := d.Decode(ID(d.Len())); ok {
			t.Errorf("%v: Decode(Len) should fail", kind)
		}
		if _, ok := d.Decode(NotFound); ok {
			t.Errorf("%v: Decode(NotFound) should fail", kind)
		}
	}
}

func TestEmptyDictionaries(t *testing.T) {
	dicts := buildAll(t, nil)
	for kind, d := range dicts {
		if d.Len() != 0 {
			t.Errorf("%v: empty Len = %d", kind, d.Len())
		}
		if _, ok := d.Lookup("x"); ok {
			t.Errorf("%v: empty Lookup found something", kind)
		}
	}
}

func TestNewSortedRejectsUnsorted(t *testing.T) {
	if _, err := NewSorted([]string{"b", "a"}); err == nil {
		t.Fatal("unsorted input accepted")
	}
	if _, err := NewSorted([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate input accepted")
	}
}

func TestSortedOrderPreserving(t *testing.T) {
	d, err := NewSorted(sortedSample())
	if err != nil {
		t.Fatal(err)
	}
	sorted := sortedSample()
	for i := 1; i < len(sorted); i++ {
		a, _ := d.Lookup(sorted[i-1])
		b, _ := d.Lookup(sorted[i])
		if a >= b {
			t.Fatalf("order not preserved: code(%q)=%d >= code(%q)=%d", sorted[i-1], a, sorted[i], b)
		}
	}
}

func TestSortedLookupRange(t *testing.T) {
	d, _ := NewSorted([]string{"apple", "banana", "cherry", "date", "fig"})
	cases := []struct {
		from, to string
		lo, hi   ID
		ok       bool
	}{
		{"apple", "fig", 0, 4, true},
		{"banana", "date", 1, 3, true},
		{"b", "c", 1, 1, true},   // only banana
		{"aa", "az", 0, 0, true}, // only apple
		{"e", "ez", 0, 0, false}, // gap between date and fig
		{"zebra", "zulu", 0, 0, false},
		{"fig", "apple", 0, 0, false}, // inverted interval
		{"", "zzz", 0, 4, true},
	}
	for _, c := range cases {
		lo, hi, ok := d.LookupRange(c.from, c.to)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("LookupRange(%q,%q) = (%d,%d,%v), want (%d,%d,%v)",
				c.from, c.to, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

func TestBuilderDedupAndRemap(t *testing.T) {
	b := NewBuilder()
	input := []string{"cherry", "apple", "cherry", "banana", "apple"}
	prov := make([]ID, len(input))
	for i, s := range input {
		id, err := b.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		prov[i] = id
	}
	if b.Len() != 3 {
		t.Fatalf("Builder.Len = %d, want 3", b.Len())
	}
	if prov[0] != prov[2] || prov[1] != prov[4] {
		t.Fatal("duplicate strings got different provisional ids")
	}
	d, remap, err := b.Build(KindSorted)
	if err != nil {
		t.Fatal(err)
	}
	// After remapping, every provisional id decodes to the original string.
	for i, s := range input {
		final := remap[prov[i]]
		back, ok := d.Decode(final)
		if !ok || back != s {
			t.Errorf("input[%d]=%q decoded to %q", i, s, back)
		}
	}
	// Codes must be lexicographically assigned.
	if id, _ := d.Lookup("apple"); id != 0 {
		t.Errorf("apple code = %d, want 0", id)
	}
	if id, _ := d.Lookup("cherry"); id != 2 {
		t.Errorf("cherry code = %d, want 2", id)
	}
}

func TestBuilderAllKinds(t *testing.T) {
	for _, kind := range []Kind{KindSorted, KindHash, KindTrie, KindLinear} {
		b := NewBuilder()
		for _, s := range sampleWords {
			if _, err := b.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		d, _, err := b.Build(kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if d.Len() != len(sampleWords) {
			t.Fatalf("%v: Len = %d", kind, d.Len())
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{KindSorted: "sorted", KindHash: "hash", KindTrie: "trie", KindLinear: "linear"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

// perColumnSet builds one dictionary of the given kind per column, each
// holding only that column's distinct values.
func perColumnSet(t *testing.T, columns map[string][]string, kind Kind) (*Set, error) {
	t.Helper()
	s := NewSet()
	for col, values := range columns {
		b := NewBuilder()
		for _, v := range values {
			if _, err := b.Add(v); err != nil {
				return nil, err
			}
		}
		d, _, err := b.Build(kind)
		if err != nil {
			return nil, err
		}
		s.Put(col, d)
	}
	return s, nil
}

func TestSetTranslate(t *testing.T) {
	s, err := perColumnSet(t, map[string][]string{
		"city": {"boston", "austin", "boston", "chicago"},
		"name": {"ann", "bob"},
	}, KindSorted)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Set.Len = %d, want 2", s.Len())
	}
	id, err := s.Translate("city", "boston")
	if err != nil || id != 1 { // austin=0, boston=1, chicago=2
		t.Fatalf("Translate(city,boston) = (%d,%v), want (1,nil)", id, err)
	}
	if _, err := s.Translate("city", "denver"); err == nil {
		t.Fatal("Translate of absent literal should fail")
	}
	if _, err := s.Translate("zip", "02139"); err == nil {
		t.Fatal("Translate on unknown column should fail")
	}
	back, err := s.Decode("city", 2)
	if err != nil || back != "chicago" {
		t.Fatalf("Decode(city,2) = (%q,%v)", back, err)
	}
	if _, err := s.Decode("city", 99); err == nil {
		t.Fatal("Decode of invalid id should fail")
	}
	if got := s.DictLen("city"); got != 3 {
		t.Fatalf("DictLen(city) = %d, want 3", got)
	}
	if got := s.DictLen("missing"); got != 0 {
		t.Fatalf("DictLen(missing) = %d, want 0", got)
	}
	cols := s.Columns()
	if len(cols) != 2 || cols[0] != "city" || cols[1] != "name" {
		t.Fatalf("Columns() = %v", cols)
	}
}

func TestSetTranslateRange(t *testing.T) {
	s, _ := perColumnSet(t, map[string][]string{
		"city": {"austin", "boston", "chicago", "denver"},
	}, KindSorted)
	lo, hi, empty, err := s.TranslateRange("city", "b", "d")
	if err != nil || empty || lo != 1 || hi != 2 {
		t.Fatalf("TranslateRange = (%d,%d,%v,%v), want (1,2,false,nil)", lo, hi, empty, err)
	}
	_, _, empty, err = s.TranslateRange("city", "x", "z")
	if err != nil || !empty {
		t.Fatalf("empty TranslateRange = (empty=%v, err=%v), want empty", empty, err)
	}
	// Hash dictionaries are not order-preserving.
	hs, _ := perColumnSet(t, map[string][]string{"city": {"a", "b"}}, KindHash)
	if _, _, _, err := hs.TranslateRange("city", "a", "b"); err == nil {
		t.Fatal("TranslateRange on hash dict should fail")
	}
}

// Property: for random string sets, all kinds agree with each other on
// every lookup and round-trip every stored string.
func TestKindsEquivalenceProperty(t *testing.T) {
	f := func(raw []string, probe string) bool {
		// Deduplicate and sort.
		seen := make(map[string]bool)
		var sorted []string
		for _, s := range raw {
			if len(s) > 64 {
				s = s[:64]
			}
			if !seen[s] {
				seen[s] = true
				sorted = append(sorted, s)
			}
		}
		sort.Strings(sorted)
		ds, err1 := NewSorted(sorted)
		dh, err2 := NewHash(sorted)
		dt, err3 := NewTrie(sorted)
		dl, err4 := NewLinear(sorted)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		check := func(s string) bool {
			i1, o1 := ds.Lookup(s)
			i2, o2 := dh.Lookup(s)
			i3, o3 := dt.Lookup(s)
			i4, o4 := dl.Lookup(s)
			return o1 == o2 && o2 == o3 && o3 == o4 &&
				i1 == i2 && i2 == i3 && i3 == i4
		}
		for _, s := range sorted {
			if !check(s) {
				return false
			}
			id, _ := ds.Lookup(s)
			back, ok := ds.Decode(id)
			if !ok || back != s {
				return false
			}
		}
		return check(probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: LookupRange on Sorted agrees with a brute-force filter.
func TestLookupRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := "abcde"
	randWord := func() string {
		n := rng.Intn(4) + 1
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		return sb.String()
	}
	for trial := 0; trial < 300; trial++ {
		seen := make(map[string]bool)
		var sorted []string
		for i := 0; i < rng.Intn(30)+1; i++ {
			w := randWord()
			if !seen[w] {
				seen[w] = true
				sorted = append(sorted, w)
			}
		}
		sort.Strings(sorted)
		d, err := NewSorted(sorted)
		if err != nil {
			t.Fatal(err)
		}
		from, to := randWord(), randWord()
		if from > to {
			from, to = to, from
		}
		lo, hi, ok := d.LookupRange(from, to)
		// Brute force.
		var want []ID
		for i, s := range sorted {
			if s >= from && s <= to {
				want = append(want, ID(i))
			}
		}
		if !ok {
			if len(want) != 0 {
				t.Fatalf("trial %d: LookupRange(%q,%q) empty but brute force found %v", trial, from, to, want)
			}
			continue
		}
		if len(want) == 0 || lo != want[0] || hi != want[len(want)-1] {
			t.Fatalf("trial %d: LookupRange(%q,%q) = (%d,%d), brute force %v", trial, from, to, lo, hi, want)
		}
	}
}

func makeDict(b testing.TB, n int, kind Kind) Dictionary {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("value-%08d", i)
	}
	builder := NewBuilder()
	for _, w := range words {
		if _, err := builder.Add(w); err != nil {
			b.Fatal(err)
		}
	}
	d, _, err := builder.Build(kind)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkLookupSorted(b *testing.B) {
	d := makeDict(b, 100000, KindSorted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(fmt.Sprintf("value-%08d", i%100000))
	}
}

func BenchmarkLookupHash(b *testing.B) {
	d := makeDict(b, 100000, KindHash)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(fmt.Sprintf("value-%08d", i%100000))
	}
}

func BenchmarkLookupTrie(b *testing.B) {
	d := makeDict(b, 100000, KindTrie)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(fmt.Sprintf("value-%08d", i%100000))
	}
}

func BenchmarkLookupLinear(b *testing.B) {
	d := makeDict(b, 10000, KindLinear)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(fmt.Sprintf("value-%08d", i%10000))
	}
}
