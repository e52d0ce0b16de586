package experiment

import (
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/energy"
	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/estimate"
)

// metricSink is the experiment's one engine.Observer: it records every
// run's traffic tallies, radio energy and location error. The three
// records are independent — no event's traffic write reads its energy
// or error state, nor the other way round — so recording them in one
// sink per event is the same as three sinks in any order, and a
// node-tick costs one observer call per event instead of three (half of
// them no-ops).
//
// The sink runs once or twice per node per tick, so it avoids hashed
// lookups on the hot path: it memoizes the per-region traffic counters
// of the region it last saw (node order groups same-region nodes
// together), and it resolves the per-region-kind error accumulators
// through a small array indexed by campus.RegionKind.
type metricSink struct {
	engine.BaseObserver
	run *Run
	// acc and period charge the first-order radio model: idle listening
	// for every connected sample, one transmission burst per forwarded
	// LU.
	acc    *energy.Accountant
	period float64

	// Memoized traffic counters of the most recently seen region.
	memoRegion  *campus.Region
	memoOffered *float64
	memoSent    *float64

	// Per-kind error accumulators indexed by campus.RegionKind (Road=1,
	// Building=2), resolved once at construction.
	noLEByKind   [3]*estimate.RMSEAccumulator
	withLEByKind [3]*estimate.RMSEAccumulator
}

// newMetricSink wires the sink to run's series, tallies, accumulators and
// energy accountant.
func newMetricSink(run *Run, period float64) *metricSink {
	o := &metricSink{run: run, acc: run.Energy, period: period}
	for _, k := range []campus.RegionKind{campus.Road, campus.Building} {
		o.noLEByKind[k] = run.RMSENoLEByKind[k.String()]
		o.withLEByKind[k] = run.RMSEWithLEByKind[k.String()]
	}
	return o
}

func (o *metricSink) memo(r *campus.Region) {
	if o.memoRegion != r {
		o.memoRegion = r
		o.memoOffered = o.run.OfferedByRegion.Counter(string(r.ID))
		o.memoSent = o.run.SentByRegion.Counter(string(r.ID))
	}
}

// OnOffered tallies an offered LU and charges its idle listening.
func (o *metricSink) OnOffered(s engine.Sample) {
	o.run.OfferedPerSecond.Incr(s.Time)
	o.memo(s.Region)
	*o.memoOffered++
	o.acc.ChargeIdle(s.Node, o.period)
}

// OnTransmitted tallies a transmitted LU and charges its burst.
func (o *metricSink) OnTransmitted(s engine.Sample) {
	o.run.LUPerSecond.Incr(s.Time)
	o.memo(s.Region)
	*o.memoSent++
	o.acc.ChargeTx(s.Node)
}

// OnError accumulates the believed-vs-true location error into the
// variant's RMSE series, per-region-kind accumulator and quantile
// summary.
func (o *metricSink) OnError(s engine.Sample, v engine.Variant, d float64) {
	switch v {
	case engine.NoLE:
		o.run.RMSENoLE.Add(s.Time, d)
		o.noLEByKind[s.Region.Kind].AddError(d)
		o.run.ErrNoLE.Add(d)
	case engine.WithLE:
		o.run.RMSEWithLE.Add(s.Time, d)
		o.withLEByKind[s.Region.Kind].AddError(d)
		o.run.ErrWithLE.Add(d)
	}
}
