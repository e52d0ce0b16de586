// Streamowner fixture: every keyed randomness stream must have exactly
// one owner, declared //adf:owns on the consuming function.
package streamowner

import "github.com/mobilegrid/adf/internal/sim"

// source draws keyed streams.
type source struct {
	name string
}

// Draw claims its keyed stream: silent.
//
//adf:owns StreamGatewayDrop — fixture: sole consumer of the stream
func (s *source) Draw(keyed *sim.Keyed, node int, tick uint64) bool {
	return keyed.Bool(sim.StreamGatewayDrop, node, tick, 0.5)
}

// Unclaimed draws a keyed stream with no //adf:owns: flagged.
func Unclaimed(keyed *sim.Keyed, node int, tick uint64) uint64 {
	return keyed.Uint64(sim.StreamOutage, node, tick) // flagged: no ownership claim
}

// Stale claims a stream it never draws: flagged where it stands.
//
//adf:owns StreamChurnLeave — fixture: deliberately stale claim
func (s *source) Stale(keyed *sim.Keyed) {
	_ = s.name
}

// Malformed shows the grammar error: resource tokens that name no
// stream constant.
//
//adf:owns Queue(work) name — fixture: not valid resource tokens
func (s *source) Malformed() {}
