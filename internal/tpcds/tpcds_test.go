package tpcds

import (
	"testing"

	"hybridolap/internal/dict"
)

func TestNameFunctionsDistinct(t *testing.T) {
	cases := []struct {
		name  string
		f     func(int) string
		count int
	}{
		{"CustomerName", CustomerName, 5000},
		{"CityName", CityName, 2000},
		{"StateName", StateName, 300},
		{"BrandName", BrandName, 1000},
		{"CategoryName", CategoryName, 100},
		{"StoreName", StoreName, 500},
	}
	for _, c := range cases {
		seen := make(map[string]bool, c.count)
		for i := 0; i < c.count; i++ {
			s := c.f(i)
			if s == "" {
				t.Fatalf("%s(%d) empty", c.name, i)
			}
			if seen[s] {
				t.Fatalf("%s(%d) = %q repeats", c.name, i, s)
			}
			seen[s] = true
		}
	}
}

func TestNameFunctionsDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		if CustomerName(i) != CustomerName(i) || StoreName(i) != StoreName(i) {
			t.Fatal("name functions not deterministic")
		}
	}
	if CustomerName(0) != "James Smith" {
		t.Fatalf("CustomerName(0) = %q", CustomerName(0))
	}
	if StateName(3) != "AR" {
		t.Fatalf("StateName(3) = %q", StateName(3))
	}
}

func TestPool(t *testing.T) {
	p := Pool(10, CityName)
	if len(p) != 10 || p[0] != CityName(0) || p[9] != CityName(9) {
		t.Fatalf("Pool = %v", p)
	}
}

func TestSchemaValid(t *testing.T) {
	s := Schema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// 10 dim-level columns + 3 measures + 4 texts.
	if got := s.TotalColumns(); got != 17 {
		t.Fatalf("TotalColumns = %d, want 17", got)
	}
}

func TestGenerate(t *testing.T) {
	ft, err := Generate(Spec{Rows: 2000, Seed: 3, Customers: 500, Cities: 50, Brands: 20, Stores: 10})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Rows() != 2000 {
		t.Fatalf("rows = %d", ft.Rows())
	}
	// Dictionary lengths are bounded by the pool sizes (2000 draws from a
	// 500-name pool will not hit every value, but must never exceed it).
	d := ft.Dicts()
	if got := d.DictLen("customer_name"); got == 0 || got > 500 {
		t.Fatalf("customer_name D_L = %d", got)
	}
	if got := d.DictLen("customer_city"); got == 0 || got > 50 {
		t.Fatalf("customer_city D_L = %d", got)
	}
	// Deterministic regeneration.
	ft2, err := Generate(Spec{Rows: 2000, Seed: 3, Customers: 500, Cities: 50, Brands: 20, Stores: 10})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 50; r++ {
		if ft.TextColumn(0).At(r) != ft2.TextColumn(0).At(r) {
			t.Fatal("generation not deterministic")
		}
	}
	if _, err := Generate(Spec{Rows: -1}); err == nil {
		t.Fatal("negative rows accepted")
	}
}

func TestGenerateDefaults(t *testing.T) {
	ft, err := Generate(Spec{Rows: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Rows() != 100 {
		t.Fatalf("rows = %d", ft.Rows())
	}
}

func TestDictionaryExactSize(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		d, err := Dictionary(n, dict.KindSorted, CityName)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != n {
			t.Fatalf("Dictionary(%d) has %d entries", n, d.Len())
		}
	}
	// Every stored value must be findable.
	d, _ := Dictionary(100, dict.KindHash, CustomerName)
	for i := 0; i < 100; i++ {
		if _, ok := d.Lookup(CustomerName(i)); !ok {
			t.Fatalf("CustomerName(%d) missing from dictionary", i)
		}
	}
}
