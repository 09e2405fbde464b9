package tq

import "testing"

// TestCloneIsIndependent guards Peek's what-if placement: every lane of a
// clone keeps its value while the source is written through each method.
func TestCloneIsIndependent(t *testing.T) {
	c := New(2)
	c.Book(CPU, 3)
	c.Book(Trans, 1)
	c.Book(1, 4)
	cp := c.Clone()
	c.Book(CPU, 5)
	c.Shift(Trans, 0.5, 0)
	c.Book(0, 7)
	c.Drop(1, 2)
	for _, tc := range []struct {
		lane Lane
		want float64
	}{{CPU, 3}, {Trans, 1}, {0, 0}, {1, 4}} {
		if got := cp.Get(tc.lane); got != tc.want {
			t.Errorf("clone lane %d = %v, want %v", tc.lane, got, tc.want)
		}
	}
}
