package engine

import (
	"github.com/mobilegrid/adf/internal/sim"
)

// ChurnSink receives churn events as a timeline partition processes
// them: left reports a departure (the node's filter and broker state
// must be forgotten), otherwise the node rejoined this tick. Pipelines
// implement it directly so event delivery allocates nothing.
type ChurnSink interface {
	ChurnEvent(id int, left bool)
}

// KeyedChurn models nodes leaving and rejoining the grid (the paper's
// "relocation" constraint). Instead of one Bernoulli draw per node per
// tick (an O(N) cost, dominated by the absent majority at scale), it
// samples each node's next state flip from the geometric distribution —
// the exact law of "count Bernoulli trials until the first success" —
// and files it in a bucketed event timeline. A tick then costs O(events
// due), i.e. O(departures + rejoins), and absent nodes consume no
// randomness at all while away.
//
// Draws come from the order-independent keyed PRF (sim.Keyed), keyed by
// the node and the tick the schedule was made on, so the timeline is
// identical however its partitions are laid out: the campus partition's
// single timeline and the region partition's one timeline per shard
// produce the same flips on the same ticks, and shard workers can
// process their own partitions concurrently.
type KeyedChurn struct {
	leave  float64
	rejoin float64
	keyed  *sim.Keyed

	// absent[id] is the node's current state.
	absent []bool
	parts  []churnPart
}

// churnPart is one timeline partition: the due-tick buckets for the
// nodes it owns plus its share of the absent count. Each partition is
// touched by exactly one shard worker per tick.
type churnPart struct {
	absent  int
	buckets map[uint64][]int32
	// free recycles drained bucket slices so steady-state scheduling
	// does not allocate.
	free [][]int32
}

// NewKeyedChurn returns a keyed churn timeline: an active node departs
// with probability leave per tick, a departed one returns with rejoin.
func NewKeyedChurn(leave, rejoin float64, keyed *sim.Keyed) *KeyedChurn {
	return &KeyedChurn{leave: leave, rejoin: rejoin, keyed: keyed}
}

// InitParts partitions the timeline: parts[p] lists the node IDs owned
// by partition p. Every node starts present with its first departure
// scheduled from tick 0, so a flip can land on the first processed tick
// (tick 1) with probability leave. Calling InitParts again resets the
// timeline.
//
//adf:owns StreamChurnLeave — the initial departure schedule is drawn here, keyed by (node, tick 0)
func (c *KeyedChurn) InitParts(parts [][]int) {
	maxID := 0
	for _, ids := range parts {
		for _, id := range ids {
			if id > maxID {
				maxID = id
			}
		}
	}
	c.absent = make([]bool, maxID+1)
	c.parts = make([]churnPart, len(parts))
	for p := range c.parts {
		c.parts[p].buckets = make(map[uint64][]int32)
	}
	if c.leave <= 0 {
		return
	}
	for p, ids := range parts {
		for _, id := range ids {
			c.schedule(p, id, c.keyed.Geometric(sim.StreamChurnLeave, id, 0, c.leave))
		}
	}
}

// schedule files node id's next flip at tick at in partition part.
func (c *KeyedChurn) schedule(part, id int, at uint64) {
	pt := &c.parts[part]
	b, ok := pt.buckets[at]
	if !ok && len(pt.free) > 0 {
		b = pt.free[len(pt.free)-1]
		pt.free = pt.free[:len(pt.free)-1]
	}
	pt.buckets[at] = append(b, int32(id))
}

// Absent reports whether the node is currently departed. Reading it is
// shard-safe during the shard stage: partitions own disjoint node sets,
// and a shard only queries nodes it owns.
func (c *KeyedChurn) Absent(id int) bool { return c.absent[id] }

// AbsentCount returns the number of currently departed nodes.
func (c *KeyedChurn) AbsentCount() int {
	n := 0
	for i := range c.parts {
		n += c.parts[i].absent
	}
	return n
}

// ProcessPart drains partition part's bucket for tick: each due node
// flips state, schedules its next flip from a geometric draw keyed by
// (node, tick), and is reported to sink. A departing node is absent
// from this tick on; a rejoining node takes part in this same tick.
// Draining is idempotent: a second call for the same tick finds no
// bucket and returns.
//
//adf:owns StreamChurnLeave StreamChurnRejoin — flip rescheduling draws, keyed by (node, flip tick); each partition is drained by exactly one shard worker per tick
func (c *KeyedChurn) ProcessPart(part int, tick uint64, sink ChurnSink) {
	pt := &c.parts[part]
	b, ok := pt.buckets[tick]
	if !ok {
		return
	}
	delete(pt.buckets, tick)
	for _, id32 := range b {
		id := int(id32)
		if c.absent[id] {
			c.absent[id] = false
			pt.absent--
			if c.leave > 0 {
				c.schedule(part, id, tick+c.keyed.Geometric(sim.StreamChurnLeave, id, tick, c.leave))
			}
			sink.ChurnEvent(id, false)
			continue
		}
		c.absent[id] = true
		pt.absent++
		if c.rejoin > 0 {
			c.schedule(part, id, tick+c.keyed.Geometric(sim.StreamChurnRejoin, id, tick, c.rejoin))
		}
		sink.ChurnEvent(id, true)
	}
	pt.free = append(pt.free, b[:0])
}
