package sim

import (
	"hash/fnv"
	"math"
	"testing"
)

func TestStreamsDeterministic(t *testing.T) {
	a := NewStreams(42).Stream("node-7")
	b := NewStreams(42).Stream("node-7")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
}

func TestStreamsIndependentNames(t *testing.T) {
	s := NewStreams(42)
	a, b := s.Stream("node-1"), s.Stream("node-2")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("streams for different names matched %d/100 draws", same)
	}
}

func TestStreamsDifferentSeeds(t *testing.T) {
	a := NewStreams(1).Stream("x")
	b := NewStreams(2).Stream("x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("streams for different seeds matched %d/100 draws", same)
	}
	if NewStreams(7).Seed() != 7 {
		t.Error("Seed accessor mismatch")
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
	// Degenerate interval returns lo.
	if v := g.Uniform(3, 3); v != 3 {
		t.Errorf("Uniform(3,3) = %v, want 3", v)
	}
}

func TestUniformPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uniform(hi<lo) did not panic")
		}
	}()
	NewRNG(1).Uniform(5, 2)
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(7)
	n, hits := 10000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.03 {
		t.Errorf("Bool(0.3) empirical p = %v", p)
	}
	if g.Bool(0) {
		t.Error("Bool(0) = true")
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(11)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Errorf("Normal variance = %v, want ~4", variance)
	}
}

func TestExp(t *testing.T) {
	g := NewRNG(13)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := g.Exp(3)
		if v < 0 {
			t.Fatalf("Exp < 0: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.15 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Error("Exp of non-positive mean should be 0")
	}
}

func TestHeadingRange(t *testing.T) {
	g := NewRNG(17)
	for i := 0; i < 1000; i++ {
		h := g.Heading()
		if h < 0 || h >= 2*math.Pi {
			t.Fatalf("Heading = %v out of [0, 2π)", h)
		}
	}
}

func TestIntnAndShuffle(t *testing.T) {
	g := NewRNG(19)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := g.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn(5) hit only %d distinct values", len(seen))
	}

	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 28 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

// TestStreamHashMatchesFNV pins the stream seeds: the inline FNV-1a over
// a name's bytes, from a string or a byte slice, is hash/fnv's New64a.
func TestStreamHashMatchesFNV(t *testing.T) {
	for _, name := range []string{"", "x", "node-0", "node-7", "node-100015", "gateway/\xff\x00"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		want := h.Sum64()
		if got := fnv1a(name); got != want {
			t.Errorf("fnv1a(%q) = %#x, want %#x", name, got, want)
		}
		if got := fnv1a([]byte(name)); got != want {
			t.Errorf("fnv1a([]byte(%q)) = %#x, want %#x", name, got, want)
		}
		a, b := NewStreams(42).Stream(name), NewStreams(42).StreamBytes([]byte(name))
		for i := 0; i < 10; i++ {
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("Stream and StreamBytes of %q diverged at draw %d: %v vs %v", name, i, x, y)
			}
		}
	}
}

// TestRNGOneAllocation: an RNG holds its counter and its rand.Rand by
// value, so deriving a stream from a reused name buffer is one object.
func TestRNGOneAllocation(t *testing.T) {
	s := NewStreams(1)
	name := []byte("node-12345")
	var sink *RNG
	allocs := testing.AllocsPerRun(100, func() { sink = s.StreamBytes(name) })
	if allocs != 1 {
		t.Errorf("allocs per stream = %v, want 1", allocs)
	}
	_ = sink
}
