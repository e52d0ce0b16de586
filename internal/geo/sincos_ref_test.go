package geo

import (
	"math"
	"math/rand"
	"testing"
)

// TestSincosMatchesReference pins the trig hoist the tick path relies on:
// one math.Sincos per angle — headings, cluster features, walker turns,
// FromHeading and the circular sums — returns bit for bit what the
// separate math.Sin and math.Cos it replaced return. It covers seeded
// headings in and around [0, 2π), angles past 2^29 where the argument
// reduction switches to Payne–Hanek, every binade, signed zeros,
// subnormals, ±Inf and NaN.
func TestSincosMatchesReference(t *testing.T) {
	in := []float64{
		0, math.Copysign(0, -1), math.Pi, -math.Pi, 2 * math.Pi, math.Pi / 4,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 0x1p-1022, -0x1p-1022,
		0x1p29, -0x1p29, math.Nextafter(0x1p29, 0), math.Nextafter(0x1p29, math.Inf(1)),
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		in = append(in,
			rng.Float64()*2*math.Pi,                            // headings
			rng.Float64()*8*math.Pi-4*math.Pi,                  // around the principal range
			math.Ldexp(1+rng.Float64(), 29+rng.Intn(995)),      // |x| ≥ 2^29
			-math.Ldexp(1+rng.Float64(), 29+rng.Intn(995)),     // and negative
			math.Ldexp(rng.Float64()-0.5, rng.Intn(2100)-1074)) // every binade
	}
	for _, x := range in {
		sin, cos := math.Sincos(x)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(x)) ||
			math.Float64bits(cos) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%#x, %#x), want Sin %#x, Cos %#x", x,
				math.Float64bits(sin), math.Float64bits(cos),
				math.Float64bits(math.Sin(x)), math.Float64bits(math.Cos(x)))
		}
	}
}
