package table

import (
	"errors"
	"fmt"
	"math"
)

// ErrMeasureValue is returned (wrapped) for a measure value its column
// cannot store: one that is not a whole number of 10^-scale units, or
// whose units overflow int32.
var ErrMeasureValue = errors.New("table: measure value not representable")

// pow10s[s] is 10^s, exact in a float64.
var pow10s = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// pow10 returns 10^scale for a validated scale (0..MaxScale); the mask
// keeps the lookup free of a bounds check.
//
//olaplint:noalloc
func pow10(scale int) float64 { return pow10s[scale&15] }

// Units converts a measure value to the int32 units its column stores at
// scale: the c with c/10^scale == v exactly, or ErrMeasureValue.
func Units(v float64, scale int) (int32, error) {
	unit := pow10(scale)
	c := math.Round(v * unit)
	if !(c >= math.MinInt32 && c <= math.MaxInt32) {
		return 0, fmt.Errorf("%w: %v overflows int32 units at scale %d", ErrMeasureValue, v, scale)
	}
	if c/unit != v {
		return 0, fmt.Errorf("%w: %v is not a multiple of 10^-%d", ErrMeasureValue, v, scale)
	}
	return int32(c), nil
}
