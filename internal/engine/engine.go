// Package engine decomposes the per-tick simulation loop into explicit
// pipeline stages — mobility advance → churn → gateway collect → filter →
// broker delivery → error measurement — with one pluggable Observer for the
// metric sinks, plus the bounded worker pool (Group) the campaign layer
// uses to run independent simulations concurrently.
//
// There is one Pipeline with two partitions of the population: the
// campus partition (one shard, campus-wide filtering, node order) and
// the region partition (one shard per region on a worker pool). Either
// way every effect is applied in a fixed order, and each simulation owns
// a private Pipeline, sim.Simulator and sim.Streams, so running
// simulations concurrently on a Group is bit-for-bit identical to running
// them one after another.
//
// The metric sinks lag the simulation by one tick: Pipeline.Tick(t)
// computes tick t while the observers receive tick t−1, and the sinks
// are complete once Pipeline.Run returns or Pipeline.Close has been
// called.
package engine

import (
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/geo"
)

// Sample is one node's position sample flowing through the pipeline.
type Sample struct {
	// Node is the mobile node's ID.
	Node int
	// Region is the node's home region.
	Region *campus.Region
	// Time is the virtual time the position was sampled at.
	Time float64
	// Pos is the node's true position.
	Pos geo.Point
}

// Variant names one of the two broker variants run in lockstep.
type Variant int

const (
	// NoLE is the broker without a Location Estimator.
	NoLE Variant = iota
	// WithLE is the broker with the Location Estimator.
	WithLE
)

// String returns the variant's experiment-output name.
func (v Variant) String() string {
	if v == WithLE {
		return "with-le"
	}
	return "no-le"
}

// Observer receives pipeline events. Implementations are metric sinks
// (traffic counters, energy accounting, RMSE accumulators); they must not
// mutate or read simulation state. A tick's events arrive while the
// pipeline computes the next tick, so a sink is complete only after
// Pipeline.Run returns or Pipeline.Close has been called. Returning a
// non-nil error aborts the run: no observer receives another event, and
// the error surfaces from the next Tick, from Close or from Run.
type Observer interface {
	// OnOffered fires when a sample survives wireless disconnection and
	// reaches the filter.
	OnOffered(s Sample) error
	// OnTransmitted fires when the filter forwards the sample to the
	// brokers.
	OnTransmitted(s Sample) error
	// OnError fires once per broker variant that holds a belief for the
	// node, with the believed-vs-true distance.
	OnError(s Sample, v Variant, dist float64) error
	// OnTick fires after every node has been processed for one sampling
	// round.
	OnTick(now float64) error
}

// BaseObserver is a no-op Observer for embedding, so sinks implement only
// the events they care about.
type BaseObserver struct{}

// OnOffered implements Observer.
func (BaseObserver) OnOffered(Sample) error { return nil }

// OnTransmitted implements Observer.
func (BaseObserver) OnTransmitted(Sample) error { return nil }

// OnError implements Observer.
func (BaseObserver) OnError(Sample, Variant, float64) error { return nil }

// OnTick implements Observer.
func (BaseObserver) OnTick(float64) error { return nil }
