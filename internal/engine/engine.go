// Package engine decomposes the per-tick simulation loop into explicit
// pipeline stages — mobility advance → churn → gateway collect → filter →
// broker delivery → error measurement — plus the bounded worker pool
// (Group) the campaign layer uses to run passes concurrently.
//
// A Pipeline is one world — population, gateways, churn — whose
// advance, churn and collect stages run once per node per tick, and one
// or more Lanes: filter configurations, each with its own broker
// and one pluggable Observer for its metric sinks, that decide on the
// world's samples. Each lane computes exactly what a pipeline of its
// own would.
//
// A tick runs as a world stage (advance, churn, collect and every
// lane's filter decision) and one lane stage per lane (broker, error
// distances, observer calls), joined by a ring of preallocated tick
// frames. The lane stages run inline after the world stage, or each on
// a goroutine of its own trailing it by fewer than the ring's frame
// count; either way every effect is applied in a fixed order.
//
// There is one Pipeline with two partitions of the population: the
// campus partition (one shard, campus-wide filtering, node order) and
// the region partition (one shard per region on a worker pool). Each
// pass owns a private Pipeline and sim.Streams, so running passes
// concurrently on a Group is bit-for-bit identical to running them one
// after another.
//
// Virtual time is the tick loop's: Pipeline.Run samples every node at
// sampling round k = 1, 2, … at TickTime(SamplePeriod, k), up to the
// horizon — Ticks rounds in all.
//
// A concurrent pipeline's metric sinks and broker trail the world
// stage: they are complete once Pipeline.Run returns or Pipeline.Close
// has been called.
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

// Variant names one of the two beliefs a lane measures.
type Variant int

const (
	// NoLE is the belief without a Location Estimator: the last report.
	NoLE Variant = iota
	// WithLE is the belief with the Location Estimator.
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
// mutate or read simulation state. A lane's observer is called by its
// lane stage only, which may trail the world stage on a goroutine of its
// own, so a sink is complete only after Pipeline.Run returns or
// Pipeline.Close has been called, and observers of different lanes must
// not share unguarded state.
type Observer interface {
	// OnOffered fires when a sample survives wireless disconnection and
	// reaches the filter.
	OnOffered(s Sample)
	// OnTransmitted fires when the filter forwards the sample to the
	// broker.
	OnTransmitted(s Sample)
	// OnError fires once per variant — no-LE, then with-LE — while the
	// broker holds the node, with the believed-vs-true distance.
	OnError(s Sample, v Variant, dist float64)
	// OnTick fires after every node has been processed for one sampling
	// round.
	OnTick(now float64)
}

// BaseObserver is a no-op Observer for embedding, so sinks implement only
// the events they care about.
type BaseObserver struct{}

// OnOffered implements Observer.
func (BaseObserver) OnOffered(Sample) {}

// OnTransmitted implements Observer.
func (BaseObserver) OnTransmitted(Sample) {}

// OnError implements Observer.
func (BaseObserver) OnError(Sample, Variant, float64) {}

// OnTick implements Observer.
func (BaseObserver) OnTick(float64) {}
