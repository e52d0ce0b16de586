// Streamowner fixture: every keyed randomness stream and worker queue
// must have exactly one owner, declared //adf:owns on the consuming
// function.
package streamowner

import "github.com/mobilegrid/adf/internal/sim"

// source owns a worker queue.
type source struct {
	work chan int
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

// Malformed shows the grammar error: resource tokens fitting no form,
// a bare field name among them.
//
//adf:owns Queue(work) name — fixture: not valid resource tokens
func (s *source) Malformed() {}

// StartWorkers launches the goroutine pool that drains the work queue:
// the claim makes those goroutines the channel's only receivers.
//
//adf:owns queue:work — fixture: the pool is the queue's sole drainer
func (s *source) StartWorkers(n int) {
	for i := 0; i < n; i++ {
		go func() {
			for range s.work {
			}
		}()
	}
}

// Steal receives from the claimed queue outside its owner: flagged.
func (s *source) Steal() int {
	return <-s.work // flagged: work is drained only by StartWorkers' pool
}

// Send feeds the queue; sends are not receives and stay silent.
func (s *source) Send(v int) {
	s.work <- v
}
