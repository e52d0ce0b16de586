// Package sim holds the simulation's deterministic random streams: per
// entity sequential sources (Streams, RNG) and keyed counter-based draws
// (Keyed) whose every value is a pure function of its stream, node and
// tick. Virtual time is the engine pipeline's: its tick loop samples
// every node once per sample period up to the horizon.
package sim

import (
	"math/rand"
)

// RNG is a deterministic random source for one simulation entity. It wraps
// math/rand, driven by an 8-byte splitmix64 counter, with the handful of
// distributions the mobility and network models need. RNG is not safe
// for concurrent use; each stream belongs to one entity.
//
// An RNG is one allocation: the splitmix counter and the rand.Rand that
// draws from it are held by value, and the Rand points at the counter
// inside the same RNG. An RNG must therefore never be copied by value —
// a copy's Rand would still advance the original's counter — so it is
// only ever handled as the *RNG its constructors return (go vet's
// copylocks check flags a copy).
type RNG struct {
	_   noCopy
	src splitmix
	r   rand.Rand
}

// noCopy makes go vet's copylocks check flag a copied RNG.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewRNG returns a stream seeded directly with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{src: splitmix{state: uint64(seed)}}
	g.r = *rand.New(&g.src)
	return g
}

// splitmix is a splitmix64 counter implementing rand.Source64 in 8 bytes
// of state, against the ≈5 KB of math/rand's default source. That is
// what makes million-node populations buildable: every node owns a
// mobility stream.
type splitmix struct {
	state uint64
}

var _ rand.Source64 = (*splitmix)(nil)

// Uint64 implements rand.Source64.
func (s *splitmix) Uint64() uint64 {
	s.state += keyedGamma
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// Streams derives independent named sub-streams from one run seed, so each
// entity (a node's mobility model, say) gets its own deterministic
// sequence regardless of the order entities consume randomness in.
type Streams struct {
	seed int64
}

// NewStreams returns a derivation root for the given run seed.
func NewStreams(seed int64) *Streams {
	return &Streams{seed: seed}
}

// NewLightStreams is an alias of NewStreams.
func NewLightStreams(seed int64) *Streams { return NewStreams(seed) }

// Seed returns the root seed.
func (s *Streams) Seed() int64 { return s.seed }

// Stream derives the sub-stream for name: the root seed XOR the 64-bit
// FNV-1a hash of the name's bytes. Equal names always yield streams that
// generate identical sequences.
func (s *Streams) Stream(name string) *RNG {
	return NewRNG(s.seed ^ int64(fnv1a(name)))
}

// StreamBytes is Stream for a name held in a byte slice, so a caller
// deriving many streams can build their names in one reused buffer.
func (s *Streams) StreamBytes(name []byte) *RNG {
	return NewRNG(s.seed ^ int64(fnv1a(name)))
}

// fnv1a is the 64-bit FNV-1a hash of b, bit for bit hash/fnv's New64a
// over the same bytes.
func fnv1a[T string | []byte](b T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform value in [lo, hi). It panics if hi < lo.
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("sim: Uniform with hi < lo")
	}
	return lo + g.r.Float64()*(hi-lo)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + g.r.NormFloat64()*stddev
}

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean yields 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Heading returns a uniform angle in [0, 2π).
func (g *RNG) Heading() float64 {
	return g.r.Float64() * 2 * 3.141592653589793
}

// Shuffle pseudo-randomises the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
