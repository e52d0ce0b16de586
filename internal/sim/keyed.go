package sim

import "math"

// StreamID names one logical keyed draw stream, so draws for different
// purposes (gateway drops, churn departures, ...) are decorrelated even
// when they share a node and tick.
type StreamID uint64

const (
	// StreamGatewayDrop is the per-sample wireless disconnection draw.
	StreamGatewayDrop StreamID = iota + 1
	// StreamOutage is the Gilbert–Elliott outage chain's per-period draw.
	StreamOutage
	// StreamChurnLeave is the departure-scheduling draw of the churn
	// event timeline.
	StreamChurnLeave
	// StreamChurnRejoin is the rejoin-scheduling draw of the churn event
	// timeline.
	StreamChurnRejoin
)

// Keyed is a counter-based (splittable) PRF random source: every draw is
// a pure function of (seed, stream, id, tick), so draws are
// order-independent — any worker, in any order, at any time, computes
// the identical value for the same key. That is the property the
// region-sharded pipeline needs to draw randomness inside the shard
// stage with no stream-alignment bookkeeping, and the property that lets
// the churn model skip ahead over absent ticks instead of burning one
// Bernoulli draw per node per tick.
//
// The generator chains SplitMix64 finalizer rounds over the key words.
// Keyed is safe for concurrent use; it holds no mutable state.
type Keyed struct {
	seed uint64
}

// NewKeyed returns the keyed PRF for one run seed.
func NewKeyed(seed int64) *Keyed {
	return &Keyed{seed: uint64(seed)}
}

// Weyl increments and multipliers: the SplitMix64 golden-gamma plus two
// odd constants (from the same mixer family) that separate the id and
// tick words before finalization.
const (
	keyedGamma   = 0x9E3779B97F4A7C15
	keyedIDSalt  = 0xD1B54A32D192ED03
	keyedTickMul = 0x8CB92BA72F3D8DD7
)

// mix64 is the SplitMix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the draw for (stream, id, tick): uniform over all 64-bit
// values, identical for equal keys, decorrelated across keys.
func (k *Keyed) Uint64(stream StreamID, id int, tick uint64) uint64 {
	z := k.seed + uint64(stream)*keyedGamma
	z = mix64(z + uint64(id)*keyedIDSalt)
	z = mix64(z + tick*keyedTickMul)
	return mix64(z)
}

// Float64 returns the keyed draw as a uniform value in [0, 1).
func (k *Keyed) Float64(stream StreamID, id int, tick uint64) float64 {
	return float64(k.Uint64(stream, id, tick)>>11) * 0x1p-53
}

// Bool returns true with probability p for the given key.
func (k *Keyed) Bool(stream StreamID, id int, tick uint64, p float64) bool {
	return k.Float64(stream, id, tick) < p
}

// geometricCap bounds the trial count for vanishing success
// probabilities, keeping the float→uint64 conversion in range. At one
// tick per virtual second it is ≈36 billion years — an unreachable
// horizon standing in for "never".
const geometricCap = 1 << 60

// Geometric returns the number of independent Bernoulli(p) trials up to
// and including the first success — the geometric distribution on
// {1, 2, ...} — computed by inverse-CDF from a single keyed uniform.
// Sampling the next event gap directly this way is exactly equivalent in
// distribution to drawing one Bernoulli(p) per trial and counting, which
// is what lets the churn timeline skip absent ticks entirely. p must be
// positive; p >= 1 returns 1.
func (k *Keyed) Geometric(stream StreamID, id int, tick uint64, p float64) uint64 {
	if p <= 0 {
		panic("sim: Geometric with p <= 0")
	}
	if p >= 1 {
		return 1
	}
	u := k.Float64(stream, id, tick)
	// Smallest n with 1-(1-p)^n >= u. Log1p keeps precision for small p.
	n := math.Floor(math.Log1p(-u)/math.Log1p(-p)) + 1
	if n < 1 {
		return 1
	}
	if n >= geometricCap {
		return geometricCap
	}
	return uint64(n)
}
