package geo

import (
	"math"
	"math/rand"
	"testing"
)

// refNormalizeAngle is the plain math.Mod statement of NormalizeAngle, the
// oracle the range-checked version must match bit for bit.
func refNormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	if a >= 2*math.Pi {
		a = 0
	}
	return a
}

// TestNormalizeAngleMatchesMod pins NormalizeAngle to the math.Mod oracle
// over signed zeros, ±π, the neighbours of ±2π on both sides, subnormals,
// huge values, ±Inf, NaN and seeded random inputs near and far from the
// principal range.
func TestNormalizeAngleMatchesMod(t *testing.T) {
	twoPi := 2 * math.Pi
	in := []float64{
		0, math.Copysign(0, -1), math.Pi, -math.Pi, twoPi, -twoPi,
		math.Nextafter(twoPi, 0), math.Nextafter(twoPi, math.Inf(1)),
		math.Nextafter(-twoPi, 0), math.Nextafter(-twoPi, math.Inf(-1)),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 1e-20, -1e-20,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		in = append(in,
			rng.Float64()*4*twoPi-2*twoPi,                      // around ±2π
			math.Ldexp(rng.Float64()-0.5, rng.Intn(2100)-1074)) // every binade
	}
	for _, a := range in {
		got, want := NormalizeAngle(a), refNormalizeAngle(a)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeAngle(%v) = %v (%#x), want %v (%#x)",
				a, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
