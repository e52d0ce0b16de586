package sim

import (
	"math"
	"testing"
)

func TestKeyedIsAPureFunctionOfTheKey(t *testing.T) {
	k := NewKeyed(42)
	a := k.Uint64(StreamGatewayDrop, 7, 100)
	// Unrelated draws in between must not perturb later ones.
	_ = k.Uint64(StreamChurnLeave, 1, 1)
	_ = k.Float64(StreamOutage, 99, 3)
	if got := k.Uint64(StreamGatewayDrop, 7, 100); got != a {
		t.Fatalf("same key drew %#x then %#x; keyed draws must be order-independent", a, got)
	}
	// A second instance with the same seed agrees; a different seed does not.
	if got := NewKeyed(42).Uint64(StreamGatewayDrop, 7, 100); got != a {
		t.Fatalf("fresh Keyed(42) drew %#x, want %#x", got, a)
	}
	if got := NewKeyed(43).Uint64(StreamGatewayDrop, 7, 100); got == a {
		t.Fatalf("seeds 42 and 43 drew the same value %#x", a)
	}
}

func TestKeyedKeyComponentsDecorrelate(t *testing.T) {
	k := NewKeyed(1)
	base := k.Uint64(StreamGatewayDrop, 7, 100)
	for name, v := range map[string]uint64{
		"stream": k.Uint64(StreamOutage, 7, 100),
		"id":     k.Uint64(StreamGatewayDrop, 8, 100),
		"tick":   k.Uint64(StreamGatewayDrop, 7, 101),
	} {
		if v == base {
			t.Errorf("changing the %s component left the draw at %#x", name, base)
		}
	}
}

func TestKeyedFloat64Uniformity(t *testing.T) {
	k := NewKeyed(7)
	const n = 200_000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		u := k.Float64(StreamGatewayDrop, i, 0)
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 = %v outside [0, 1)", u)
		}
		sum += u
		buckets[int(u*10)]++
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean of %d uniforms = %v, want 0.5 ± 0.005", n, mean)
	}
	for b, c := range buckets {
		if frac := float64(c) / n; math.Abs(frac-0.1) > 0.01 {
			t.Errorf("decile %d holds %.3f of the mass, want 0.1 ± 0.01", b, frac)
		}
	}
}

func TestKeyedBoolFrequency(t *testing.T) {
	k := NewKeyed(11)
	const n, p = 100_000, 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if k.Bool(StreamChurnLeave, i, 5, p) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-p) > 0.01 {
		t.Errorf("Bool(%v) fired %.4f of the time, want %v ± 0.01", p, frac, p)
	}
}

// TestGeometricMatchesBernoulliTrials is the distributional equivalence
// the churn skip-ahead relies on: Geometric(p) must match the law of
// "count Bernoulli(p) trials until the first success" — mean 1/p, pmf
// p(1-p)^(k-1).
func TestGeometricMatchesBernoulliTrials(t *testing.T) {
	k := NewKeyed(3)
	for _, p := range []float64{0.05, 0.3, 0.9} {
		const n = 200_000
		var sum float64
		pmf := make([]int, 12)
		for i := 0; i < n; i++ {
			g := k.Geometric(StreamChurnRejoin, i, 17, p)
			if g < 1 {
				t.Fatalf("p=%v: Geometric returned %d, want >= 1", p, g)
			}
			sum += float64(g)
			if int(g) < len(pmf) {
				pmf[g]++
			}
		}
		mean, want := sum/n, 1/p
		if math.Abs(mean-want) > 0.03*want {
			t.Errorf("p=%v: mean trials %v, want %v ± 3%%", p, mean, want)
		}
		for trial := 1; trial <= 8; trial++ {
			got := float64(pmf[trial]) / n
			theory := p * math.Pow(1-p, float64(trial-1))
			if math.Abs(got-theory) > 0.008 {
				t.Errorf("p=%v: P(first success at trial %d) = %.4f, theory %.4f", p, trial, got, theory)
			}
		}
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	k := NewKeyed(1)
	if g := k.Geometric(StreamChurnLeave, 0, 0, 1); g != 1 {
		t.Errorf("Geometric(p=1) = %d, want 1", g)
	}
	if g := k.Geometric(StreamChurnLeave, 0, 0, 1.5); g != 1 {
		t.Errorf("Geometric(p=1.5) = %d, want 1", g)
	}
	// Vanishing p saturates at the cap instead of overflowing.
	if g := k.Geometric(StreamChurnLeave, 0, 0, 1e-300); g < 1 || g > geometricCap {
		t.Errorf("Geometric(p=1e-300) = %d, want within (0, cap]", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("Geometric(p=0) did not panic")
		}
	}()
	k.Geometric(StreamChurnLeave, 0, 0, 0)
}

func TestLightStreamsDeterministicPerName(t *testing.T) {
	a := NewLightStreams(9).Stream("node-3")
	b := NewLightStreams(9).Stream("node-3")
	other := NewLightStreams(9).Stream("node-4")
	same, diff := true, false
	for i := 0; i < 64; i++ {
		x, y, z := a.Float64(), b.Float64(), other.Float64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
		if x < 0 || x >= 1 {
			t.Fatalf("stream Float64 = %v outside [0, 1)", x)
		}
	}
	if !same {
		t.Error("equal names drew different stream sequences")
	}
	if !diff {
		t.Error("distinct names drew identical stream sequences")
	}
}

func TestLightStreamDistributions(t *testing.T) {
	g := NewRNG(5)
	const n = 100_000
	var sum, sumN float64
	for i := 0; i < n; i++ {
		sum += g.Float64()
		sumN += g.Normal(0, 1)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean %v, want 0.5 ± 0.01", mean)
	}
	if mean := sumN / n; math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want 0 ± 0.02", mean)
	}
	if v := g.Intn(10); v < 0 || v >= 10 {
		t.Errorf("Intn(10) = %d", v)
	}
}
