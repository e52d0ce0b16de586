// Package sanitize holds Digest, the FNV-1a checksum of simulation
// state (node positions, broker beliefs, cluster statistics) that the
// engine exposes through Pipeline.StateDigest, used to assert that runs
// at different worker counts stay bit-for-bit identical tick by tick.
// The invariants over that state are the run oracle's (internal/oracle).
package sanitize

import "math"

// FNV-1a 64-bit parameters (FNV is the standard non-cryptographic hash
// for exactly this job: cheap, alloc-free, and sensitive to single-bit
// changes — a flipped sign bit in one coordinate changes the digest).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest accumulates an FNV-1a 64-bit checksum over simulation state.
// The zero value is NOT ready; construct with NewDigest.
type Digest struct {
	h uint64
}

// NewDigest returns a Digest primed with the FNV offset basis.
func NewDigest() Digest {
	return Digest{h: fnvOffset64}
}

// WriteUint64 folds one 64-bit word into the digest, least significant
// byte first.
func (d *Digest) WriteUint64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= fnvPrime64
		v >>= 8
	}
}

// WriteInt folds an integer into the digest.
func (d *Digest) WriteInt(v int) {
	d.WriteUint64(uint64(v))
}

// WriteBool folds a boolean into the digest.
func (d *Digest) WriteBool(v bool) {
	if v {
		d.WriteUint64(1)
	} else {
		d.WriteUint64(0)
	}
}

// WriteFloat64 folds a float's exact bit pattern into the digest, so two
// digests agree only when every written float is bit-identical (±0.0 and
// NaN payloads included).
func (d *Digest) WriteFloat64(v float64) {
	d.WriteUint64(math.Float64bits(v))
}

// WriteString folds a string — length first, then each byte — into the
// digest, so shard identities (region IDs) can participate in state
// checksums without ambiguity between adjacent strings.
func (d *Digest) WriteString(s string) {
	d.WriteInt(len(s))
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= fnvPrime64
	}
}

// Sum returns the accumulated checksum.
func (d *Digest) Sum() uint64 { return d.h }
