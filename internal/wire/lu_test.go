package wire

import (
	"errors"
	"math"
	"testing"
)

// TestLURoundTrip decodes what EncodeLU wrote, bit for bit, and checks
// that the three values do not overlap.
func TestLURoundTrip(t *testing.T) {
	for _, c := range []struct {
		node int
		x, y float64
	}{
		{0, 0, 0},
		{7, 12.5, -3.25},
		{1 << 40, math.MaxFloat64, -math.SmallestNonzeroFloat64},
		{-1, math.Inf(-1), math.Copysign(0, -1)},
	} {
		params := EncodeLU(c.node, c.x, c.y)
		node, x, y, err := DecodeLU(params)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if node != c.node || math.Float64bits(x) != math.Float64bits(c.x) || math.Float64bits(y) != math.Float64bits(c.y) {
			t.Errorf("decoded (%d, %v, %v), want %+v", node, x, y, c)
		}
		_ = append(params["node"], 0xFF)
		_ = append(params["x"], 0xFF)
		if node, x, _, _ := DecodeLU(params); node != c.node || math.Float64bits(x) != math.Float64bits(c.x) {
			t.Errorf("%+v: an append to one value overwrote the next", c)
		}
	}
}

// TestLUBadLengthRejected rejects an LU whose values are missing,
// short or long.
func TestLUBadLengthRejected(t *testing.T) {
	for name, edit := range map[string]func(p map[string][]byte){
		"missing node": func(p map[string][]byte) { delete(p, "node") },
		"short x":      func(p map[string][]byte) { p["x"] = p["x"][:7] },
		"long y":       func(p map[string][]byte) { p["y"] = append(p["y"], 0) },
		"empty y":      func(p map[string][]byte) { p["y"] = nil },
	} {
		params := EncodeLU(3, 1, 2)
		edit(params)
		if _, _, _, err := DecodeLU(params); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: DecodeLU = %v, want ErrMalformed", name, err)
		}
	}
	if _, _, _, err := DecodeLU(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("nil parameters: DecodeLU = %v, want ErrMalformed", err)
	}
}
