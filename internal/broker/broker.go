// Package broker implements the grid broker of section 3.4: the wired-grid
// component that manages mobile resources. It keeps a location DB with one
// entry per mobile node and a pluggable Location Estimator. When a
// location update arrives the reported position is stored; when the update
// was filtered the broker stores the estimator's forecast instead, so the
// DB always holds the broker's best belief about every node.
package broker

import (
	"fmt"
	"sort"

	"github.com/mobilegrid/adf/internal/dense"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/obs"
)

// Entry is one location-DB record.
type Entry struct {
	// Node is the mobile node's ID.
	Node int
	// Pos is the broker's believed location.
	Pos geo.Point
	// Time is the virtual time the belief was last refreshed.
	Time float64
	// Estimated is true when Pos came from the Location Estimator rather
	// than a received LU.
	Estimated bool
}

// record is one node's slot in the location DB. A slot is never
// deleted: Forget resets it in place and clears hasReport, which marks
// the node absent to every reader until it reports again, so a node
// that leaves and rejoins keeps its slot and its estimator's storage.
type record struct {
	// est is the node's Location Estimator; nil in the "without LE"
	// configuration, where a miss believes lastReported.
	est          estimate.PositionEstimator
	lastReported geo.Point
	believed     Entry
	hasReport    bool
}

// Broker is the grid broker.
type Broker struct {
	// newEstimator builds each node's Location Estimator; nil disables
	// estimation, and records then carry no estimator at all.
	newEstimator estimate.Factory
	// records is keyed by node ID. Node IDs are assigned densely from
	// zero, so the per-tick record lookups — the broker is touched for
	// every node every sampling period — resolve to a slice index.
	records dense.Slab[record]

	// Counters for experiment reporting.
	received  uint64
	estimated uint64
	// The pad makes a Broker 128 bytes, an allocation size the runtime
	// aligns to 128: Step writes the counters on every call, and the
	// brokers of lanes stepped on different CPUs must not share a cache
	// line.
	_ [48]byte
}

// New returns a broker whose Location Estimator instances are built by
// factory. A nil factory disables estimation (the paper's "without LE"
// configuration): the broker keeps no per-node estimator and a miss
// believes the node's last report — still counted as an estimated
// refresh, exactly as a last-known-location estimator would serve it.
func New(factory estimate.Factory) *Broker {
	return &Broker{newEstimator: factory}
}

// Preallocate sizes the location DB's dense window for node IDs in
// [0, n), so later record births never move the storage and a steady
// tick allocates nothing.
func (b *Broker) Preallocate(n int) { b.records.Grow(n) }

// record returns node's slot for a report, counting a node that was
// absent (never seen, or forgotten) as a new record.
func (b *Broker) record(node int) *record {
	r := b.records.Ptr(node)
	if r == nil {
		//adf:allow hotpath — first report from a node; later ticks take
		// the Ptr fast path.
		r = b.birth(node)
	}
	if !r.hasReport {
		obs.BrokerRecords.Inc()
	}
	return r
}

// birth stores a fresh record for node, with an estimator when the
// broker estimates.
func (b *Broker) birth(node int) *record {
	var rec record
	if b.newEstimator != nil {
		rec.est = b.newEstimator()
	}
	return b.records.PutPtr(node, rec)
}

// ReceiveLU stores a received location update in the location DB and
// feeds the node's estimator.
func (b *Broker) ReceiveLU(node int, t float64, p geo.Point) {
	b.receive(b.record(node), node, t, p)
	b.received++
}

//adf:hotpath
func (b *Broker) receive(r *record, node int, t float64, p geo.Point) {
	r.lastReported = p
	r.hasReport = true
	if r.est != nil {
		r.est.Observe(t, p)
	}
	r.believed = Entry{Node: node, Pos: p, Time: t, Estimated: false}
	b.checkBelief(r)
}

// miss refreshes a known node's belief from the estimator and reports
// whether the estimator (rather than the last report) supplied the
// position, so the caller can attribute the refresh to its own counter.
// Without an estimator the last report serves, counted as estimated.
//
//adf:hotpath
func (b *Broker) miss(r *record, node int, t float64) (Entry, bool) {
	pos, estimated := r.lastReported, true
	if r.est != nil {
		if estimated = r.est.Ready(); estimated {
			pos = r.est.Predict(t)
		}
	}
	r.believed = Entry{Node: node, Pos: pos, Time: t, Estimated: estimated}
	b.checkBelief(r)
	return r.believed, estimated
}

// MissLU tells the broker that node's LU for time t was filtered. The
// broker refreshes the node's DB entry with the estimator's forecast (or
// keeps the last report when the estimator is not ready yet). It returns
// the refreshed entry.
func (b *Broker) MissLU(node int, t float64) (Entry, error) {
	r := b.records.Ptr(node)
	if r == nil || !r.hasReport {
		return Entry{}, fmt.Errorf("broker: no location on record for node %d", node)
	}
	e, estimated := b.miss(r, node, t)
	if estimated {
		b.estimated++
	}
	return e, nil
}

// Step processes one sampling period for a node with a single record
// lookup: a received LU is stored (like ReceiveLU), a filtered or dropped
// one refreshes the belief (like MissLU, but without constructing an
// error for unknown nodes). It returns the broker's resulting belief, or
// false when the node has never reported. This is the simulation engine's
// hot path.
//
//adf:hotpath
func (b *Broker) Step(node int, t float64, p geo.Point, received bool) (Entry, bool) {
	if received {
		r := b.record(node)
		b.receive(r, node, t, p)
		b.received++
		return r.believed, true
	}
	r := b.records.Ptr(node)
	if r == nil || !r.hasReport {
		return Entry{}, false
	}
	e, estimated := b.miss(r, node, t)
	if estimated {
		b.estimated++
	}
	return e, true
}

// Location returns the broker's current belief about a node.
func (b *Broker) Location(node int) (Entry, bool) {
	r := b.records.Ptr(node)
	if r == nil || !r.hasReport {
		return Entry{}, false
	}
	return r.believed, true
}

// Locations returns a snapshot of the whole location DB ordered by node
// ID.
func (b *Broker) Locations() []Entry {
	out := make([]Entry, 0, b.NodeCount())
	b.records.Range(func(node int, r *record) bool {
		if !r.hasReport {
			return true
		}
		e := r.believed
		e.Node = node
		out = append(out, e)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Forget drops a node from the location DB. Its slot stays, with its
// estimator reset in place (estimate.PositionEstimator.Reset), and the
// node is absent to every reader until it reports again.
func (b *Broker) Forget(node int) {
	r := b.records.Ptr(node)
	if r == nil || !r.hasReport {
		return
	}
	if r.est != nil {
		r.est.Reset()
	}
	*r = record{est: r.est}
	obs.BrokerForgets.Inc()
}

// NodeCount returns the number of nodes with a DB entry.
func (b *Broker) NodeCount() int {
	n := 0
	b.records.Range(func(_ int, r *record) bool {
		if r.hasReport {
			n++
		}
		return true
	})
	return n
}

// ReceivedLUs returns the number of LUs stored from the network.
func (b *Broker) ReceivedLUs() uint64 { return b.received }

// EstimatedLUs returns the number of DB refreshes served by the Location
// Estimator.
func (b *Broker) EstimatedLUs() uint64 { return b.estimated }
