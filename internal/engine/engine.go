// Package engine decomposes the per-tick simulation loop into explicit
// pipeline stages — mobility advance → churn → gateway collect → filter →
// broker delivery → error measurement — with pluggable Observers for the
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
package engine

import (
	"sync"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/node"
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
// mutate simulation state. Returning a non-nil error aborts the run and
// surfaces through Pipeline.Run.
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

// Observers fans each event out to every observer in slice order,
// stopping at the first error.
type Observers []Observer

var _ Observer = Observers(nil)

// OnOffered implements Observer.
func (os Observers) OnOffered(s Sample) error {
	for _, o := range os {
		if err := o.OnOffered(s); err != nil {
			return err
		}
	}
	return nil
}

// OnTransmitted implements Observer.
func (os Observers) OnTransmitted(s Sample) error {
	for _, o := range os {
		if err := o.OnTransmitted(s); err != nil {
			return err
		}
	}
	return nil
}

// OnError implements Observer.
func (os Observers) OnError(s Sample, v Variant, dist float64) error {
	for _, o := range os {
		if err := o.OnError(s, v, dist); err != nil {
			return err
		}
	}
	return nil
}

// OnTick implements Observer.
func (os Observers) OnTick(now float64) error {
	for _, o := range os {
		if err := o.OnTick(now); err != nil {
			return err
		}
	}
	return nil
}

// advanceRange advances the nodes in [lo, hi) and writes their samples.
// Each node's mobility draws only from its private RNG stream, so disjoint
// ranges can advance concurrently with sequential-identical results.
//
//adf:hotpath
func advanceRange(nodes []*node.Node, samples []Sample, period, now float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		n := nodes[i]
		pos := n.Advance(period)
		samples[i] = Sample{Node: n.ID(), Region: n.Region(), Time: now, Pos: pos}
	}
}

// advancePool is a persistent worker pool for the mobility-advance stage:
// the goroutines are started once and fed contiguous node ranges through a
// channel, so a steady-state tick dispatches with no allocation.
type advancePool struct {
	workers int
	work    chan [2]int
	wg      sync.WaitGroup

	// Per-dispatch inputs, published before wg.Add/sends and read by
	// workers only between receiving a range and wg.Done.
	nodes   []*node.Node
	samples []Sample
	period  float64
	now     float64
}

// newAdvancePool starts the pool's worker goroutines, which advance
// disjoint node ranges over private RNG streams — results are
// bit-for-bit identical to the sequential order.
//
//adf:owns queue:work — the workers launched here are the work channel's only receivers
func newAdvancePool(workers int) *advancePool {
	p := &advancePool{workers: workers, work: make(chan [2]int)}
	for w := 0; w < workers; w++ {
		go func() {
			for r := range p.work {
				advanceRange(p.nodes, p.samples, p.period, p.now, r[0], r[1])
				p.wg.Done()
			}
		}()
	}
	return p
}

// advance shards [0, len(nodes)) into one contiguous range per worker and
// blocks until every node has been advanced.
func (p *advancePool) advance(nodes []*node.Node, samples []Sample, period, now float64) {
	p.nodes, p.samples, p.period, p.now = nodes, samples, period, now
	n := len(nodes)
	shards := p.workers
	if shards > n {
		shards = n
	}
	if shards == 0 {
		return
	}
	p.wg.Add(shards)
	for s := 0; s < shards; s++ {
		lo := s * n / shards
		hi := (s + 1) * n / shards
		p.work <- [2]int{lo, hi}
	}
	p.wg.Wait()
}

func (p *advancePool) close() { close(p.work) }
