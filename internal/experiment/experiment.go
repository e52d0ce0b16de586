// Package experiment reproduces the paper's evaluation: every table and
// figure of section 4 plus the ablations DESIGN.md calls out. One Run*
// function per experiment; each returns a typed result with a Table
// rendering that prints the same rows/series the paper reports.
//
// All experiments share one simulation core: the Table-1 population of 140
// mobile nodes moving on the synthetic campus for a configurable horizon
// (1800 s in the paper), sampled at 1 Hz through per-region wireless
// gateways, filtered by a pluggable location-update filter, and tracked by
// two grid brokers run in lockstep — one without a Location Estimator and
// one with the paper's Brown's-double-exponential-smoothing LE — so the
// "with LE" and "without LE" curves come from identical inputs.
package experiment

import (
	"fmt"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/energy"
	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/metrics"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sim"
)

// Config parameterises one experiment campaign.
type Config struct {
	// Seed drives every random stream; equal seeds give identical runs.
	Seed int64
	// Duration is the simulated horizon in seconds (1800 in the paper).
	Duration float64
	// SamplePeriod is the LU sampling interval in seconds (1 in the paper).
	SamplePeriod float64
	// DropProb is the per-sample disconnection probability of the wireless
	// gateways. The paper's ideal baseline averages ≈135 LU/s from 140
	// nodes; a 3.5% drop probability reproduces that.
	DropProb float64
	// Burst, when non-nil, replaces the independent per-sample drops with
	// correlated Gilbert–Elliott outages (failure injection).
	Burst *gateway.BurstConfig
	// PerGroup scales the Table-1 population: nodes per (region, pattern,
	// type) group. Zero means the paper's 5 (140 nodes in total).
	PerGroup int
	// Churn, when non-nil, lets nodes leave and rejoin the grid (the
	// paper's "relocation" constraint): an active node departs with
	// LeaveProb per second, a departed one returns with RejoinProb. On
	// departure the filter and both brokers forget the node entirely.
	Churn *ChurnConfig
	// DTHFactors are the threshold scalings to evaluate (0.75, 1.0, 1.25
	// in the paper).
	DTHFactors []float64
	// Smoothing is the Location Estimator's smoothing constant.
	Smoothing float64
	// Estimator selects the Location Estimator the "with LE" broker uses:
	// EstimatorGapAware (default), EstimatorBrown (the paper's plain
	// double-exponential smoothing), EstimatorSingle, EstimatorDead or
	// EstimatorAR1.
	Estimator string
	// ADF is the template configuration for the adaptive filter; its
	// DTHFactor and SamplePeriod are overridden per run.
	ADF core.Config
	// Workers bounds the campaign worker pool that runs independent
	// simulations concurrently: 0 means one worker per available CPU,
	// 1 forces sequential execution. It never changes results — each run
	// owns private random streams — only the execution schedule.
	Workers int
	// MobilityWorkers > 1 shards each simulation's mobility-advance stage
	// over that many goroutines (engine.Pipeline.MobilityWorkers). Every
	// node draws from a private RNG stream, so results are bit-for-bit
	// identical at any worker count; only the execution schedule changes.
	MobilityWorkers int
	// ShardWorkers > 0 replaces the classic whole-tick pipeline with the
	// region-sharded one (engine.Sharded): every stage past mobility
	// advance runs shard-locally per campus region on that many workers,
	// merged deterministically in ascending region-ID order. 1 is the
	// sequential sharded reference; any count produces bit-identical
	// results to it. 0 keeps engine.Pipeline. Note the ADF filter is
	// instantiated per shard, so its clustering is region-scoped here
	// (DESIGN.md "Sharded pipeline").
	ShardWorkers int
	// RNGMode selects the random stream class (DESIGN.md "RNG stream
	// classes"). Empty or RNGSequential keeps the classic per-entity
	// sequential streams — bit-identical to every run recorded so far.
	// RNGKeyed switches the gateway, outage and churn draws to the
	// counter-based keyed PRF (sim.Keyed) and the remaining per-entity
	// streams to the 8-byte light source: statistically equivalent but
	// different sample paths, order-independent draws, O(events) churn,
	// and memory that scales to million-node populations.
	RNGMode string
}

// RNG mode names accepted by Config.RNGMode.
const (
	RNGSequential = "sequential"
	RNGKeyed      = "keyed"
)

// ChurnConfig parameterises node departure and return.
type ChurnConfig struct {
	// LeaveProb is the per-second probability an active node leaves.
	LeaveProb float64
	// RejoinProb is the per-second probability a departed node returns.
	RejoinProb float64
}

// Validate reports configuration errors.
func (c ChurnConfig) Validate() error {
	if c.LeaveProb < 0 || c.LeaveProb >= 1 {
		return fmt.Errorf("experiment: LeaveProb %v outside [0, 1)", c.LeaveProb)
	}
	if c.RejoinProb < 0 || c.RejoinProb > 1 {
		return fmt.Errorf("experiment: RejoinProb %v outside [0, 1]", c.RejoinProb)
	}
	if c.LeaveProb > 0 && c.RejoinProb == 0 {
		return fmt.Errorf("experiment: nodes can leave but never return")
	}
	return nil
}

// Estimator names accepted by Config.Estimator.
const (
	EstimatorGapAware = "gap-aware"
	EstimatorBrown    = "brown"
	EstimatorSingle   = "single"
	EstimatorDead     = "dead-reckoning"
	EstimatorAR1      = "ar1"
)

// EstimatorNames lists the supported estimators in shoot-out order.
func EstimatorNames() []string {
	return []string{EstimatorGapAware, EstimatorBrown, EstimatorSingle, EstimatorDead, EstimatorAR1}
}

// estimatorFactory builds the estimate.Factory for a named estimator.
func (c Config) estimatorFactory(name string) (estimate.Factory, error) {
	mk := func(build func() (estimate.PositionEstimator, error)) (estimate.Factory, error) {
		// Validate the configuration once up front so the per-node factory
		// cannot fail later.
		if _, err := build(); err != nil {
			return nil, err
		}
		return func() estimate.PositionEstimator {
			e, err := build()
			if err != nil {
				panic(fmt.Sprintf("experiment: estimator config invalidated: %v", err))
			}
			return e
		}, nil
	}
	switch name {
	case EstimatorGapAware, "":
		gcfg := estimate.DefaultGapAwareConfig()
		gcfg.HeadingAlpha = c.Smoothing
		return mk(func() (estimate.PositionEstimator, error) { return estimate.NewGapAwareLE(gcfg) })
	case EstimatorBrown:
		return mk(func() (estimate.PositionEstimator, error) { return estimate.NewBrownLE(c.Smoothing) })
	case EstimatorSingle:
		return mk(func() (estimate.PositionEstimator, error) { return estimate.NewSingleLE(c.Smoothing) })
	case EstimatorDead:
		return mk(func() (estimate.PositionEstimator, error) { return estimate.NewDeadReckoning(), nil })
	case EstimatorAR1:
		return mk(func() (estimate.PositionEstimator, error) { return estimate.NewAR1LE(0.98), nil })
	default:
		return nil, fmt.Errorf("experiment: unknown estimator %q", name)
	}
}

// DefaultConfig returns the paper's experiment setup.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Duration:     1800,
		SamplePeriod: 1,
		DropProb:     0.035,
		DTHFactors:   []float64{0.75, 1.0, 1.25},
		Smoothing:    estimate.DefaultSmoothing,
		Estimator:    EstimatorGapAware,
		ADF:          core.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("experiment: Duration must be positive, got %v", c.Duration)
	}
	if c.SamplePeriod <= 0 {
		return fmt.Errorf("experiment: SamplePeriod must be positive, got %v", c.SamplePeriod)
	}
	if c.DropProb < 0 || c.DropProb >= 1 {
		return fmt.Errorf("experiment: DropProb %v outside [0, 1)", c.DropProb)
	}
	if len(c.DTHFactors) == 0 {
		return fmt.Errorf("experiment: no DTH factors")
	}
	for _, f := range c.DTHFactors {
		if f <= 0 {
			return fmt.Errorf("experiment: DTH factor %v not positive", f)
		}
	}
	if c.Smoothing <= 0 || c.Smoothing >= 1 {
		return fmt.Errorf("experiment: Smoothing %v outside (0, 1)", c.Smoothing)
	}
	if _, err := c.estimatorFactory(c.Estimator); err != nil {
		return err
	}
	if c.Burst != nil {
		if err := c.Burst.Validate(); err != nil {
			return err
		}
	}
	if c.PerGroup < 0 {
		return fmt.Errorf("experiment: negative PerGroup %d", c.PerGroup)
	}
	if c.Churn != nil {
		if err := c.Churn.Validate(); err != nil {
			return err
		}
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiment: negative Workers %d", c.Workers)
	}
	if c.MobilityWorkers < 0 {
		return fmt.Errorf("experiment: negative MobilityWorkers %d", c.MobilityWorkers)
	}
	if c.ShardWorkers < 0 {
		return fmt.Errorf("experiment: negative ShardWorkers %d", c.ShardWorkers)
	}
	switch c.RNGMode {
	case "", RNGSequential, RNGKeyed:
	default:
		return fmt.Errorf("experiment: unknown RNGMode %q (want %q or %q)", c.RNGMode, RNGSequential, RNGKeyed)
	}
	adf := c.ADF
	adf.DTHFactor = 1 // factor is overridden per run; validate the rest
	adf.SamplePeriod = c.SamplePeriod
	return adf.Validate()
}

// adfConfig returns the ADF configuration for one DTH factor.
func (c Config) adfConfig(factor float64) core.Config {
	cfg := c.ADF
	cfg.DTHFactor = factor
	cfg.SamplePeriod = c.SamplePeriod
	return cfg
}

// Run is the measurement record of one filter configuration over one full
// simulation.
type Run struct {
	// Name identifies the filter ("ideal", "adf(0.75av)", ...).
	Name string
	// Factor is the DTH factor, or 0 for the ideal baseline.
	Factor float64

	// LUPerSecond counts transmitted LUs into one-second buckets.
	LUPerSecond *metrics.CountSeries
	// OfferedPerSecond counts samples that reached the filter (survived
	// disconnection).
	OfferedPerSecond *metrics.CountSeries
	// SentByRegion and OfferedByRegion tally LUs per home region.
	SentByRegion    *metrics.GroupTally
	OfferedByRegion *metrics.GroupTally

	// RMSE curves of the broker's believed-vs-true location error.
	RMSENoLE   *metrics.RMSESeries
	RMSEWithLE *metrics.RMSESeries
	// ErrNoLE and ErrWithLE hold the raw per-sample error distances for
	// quantile reporting.
	ErrNoLE   *metrics.Summary
	ErrWithLE *metrics.Summary
	// QuantNoLE and QuantWithLE are the published quantiles of ErrNoLE
	// and ErrWithLE, computed once when the run completes. Readers use
	// these, never the summaries, so a memoized Run is read-only data.
	QuantNoLE   metrics.Quantiles
	QuantWithLE metrics.Quantiles
	// Per region kind ("road" / "building") error accumulators.
	RMSENoLEByKind   map[string]*estimate.RMSEAccumulator
	RMSEWithLEByKind map[string]*estimate.RMSEAccumulator

	// FinalClusters is the ADF's cluster count at the end (0 for
	// baselines).
	FinalClusters int

	// Energy tracks the fleet's radio energy under the default model.
	Energy *energy.Accountant
}

// TotalLUs returns the number of transmitted LUs over the whole run.
func (r *Run) TotalLUs() float64 { return r.LUPerSecond.Total() }

// MeanLUsPerSecond returns the average transmitted LU rate.
func (r *Run) MeanLUsPerSecond() float64 { return r.LUPerSecond.Mean() }

// ReductionVersus returns the relative traffic reduction of r against a
// baseline run, e.g. 0.53 for 53% fewer LUs.
func (r *Run) ReductionVersus(baseline *Run) float64 {
	b := baseline.TotalLUs()
	if b == 0 {
		return 0
	}
	return 1 - r.TotalLUs()/b
}

// filterFactory builds a fresh filter for one run.
type filterFactory func() (filter.Filter, string, float64, error)

func idealFactory() (filter.Filter, string, float64, error) {
	f := filter.NewIdealLU()
	return f, f.Name(), 0, nil
}

func (c Config) adfFactory(factor float64) filterFactory {
	return func() (filter.Filter, string, float64, error) {
		f, err := core.New(c.adfConfig(factor))
		if err != nil {
			return nil, "", 0, err
		}
		return f, f.Name(), factor, nil
	}
}

// generalDFFactory sizes the global DTH the way the paper's general DF
// does: factor × mean speed of all MNs × sample period. The population
// mean speed is computed from the Table-1 velocity ranges.
func (c Config) generalDFFactory(factor float64, meanSpeed float64) filterFactory {
	return func() (filter.Filter, string, float64, error) {
		f, err := filter.NewGeneralDFWithSemantics(
			factor*meanSpeed*c.SamplePeriod, c.ADF.Semantics)
		if err != nil {
			return nil, "", 0, err
		}
		return f, fmt.Sprintf("general-df(%.2fav)", factor), factor, nil
	}
}

// PopulationMeanSpeed returns the mean of the Table-1 nodes' base speeds
// (the midpoint of each velocity range), the paper's "average velocity of
// the MNs" used to size the general DF's DTH.
func PopulationMeanSpeed(specs []campus.NodeSpec) float64 {
	if len(specs) == 0 {
		return 0
	}
	var sum float64
	for _, s := range specs {
		sum += (s.MinSpeed + s.MaxSpeed) / 2
	}
	return sum / float64(len(specs))
}

// runFilter simulates the full campus once under the given filter and the
// paper's LE configuration, by wiring the engine's staged pipeline
// (mobility advance → churn → gateway collect → filter → brokers → error
// measurement) to this Run's observer sinks. Every run derives its node
// movement, gateway drops and estimator behaviour from Config.Seed
// through private streams, so runs with different filters see identical
// inputs, are directly comparable, and can execute concurrently with
// other runs without changing results.
func (c Config) runFilter(mk filterFactory) (*Run, error) {
	if c.ShardWorkers > 0 {
		return c.runFilterSharded(mk)
	}
	pipeline, run, f, err := c.buildRun(mk)
	if err != nil {
		return nil, err
	}

	simulations.Add(1)
	if err := pipeline.Run(sim.New(), c.Duration); err != nil {
		return nil, err
	}

	if adf, ok := f.(*core.ADF); ok {
		run.FinalClusters = adf.ClusterCount()
	}
	run.publishQuantiles()
	return run, nil
}

// publishQuantiles computes the run's published error quantiles. It is
// the last write to the run's summaries.
func (r *Run) publishQuantiles() {
	r.QuantNoLE = r.ErrNoLE.Quantiles()
	r.QuantWithLE = r.ErrWithLE.Quantiles()
}

// runFilterSharded is runFilter on the region-sharded pipeline. The
// filter is instantiated once per shard, so the ADF cluster summary is
// the sum over the per-region filters.
func (c Config) runFilterSharded(mk filterFactory) (*Run, error) {
	p, run, err := c.buildSharded(mk)
	if err != nil {
		return nil, err
	}
	defer p.Close()

	simulations.Add(1)
	if err := p.Run(sim.New(), c.Duration); err != nil {
		return nil, err
	}

	for _, f := range p.ShardFilters() {
		if adf, ok := f.(*core.ADF); ok {
			run.FinalClusters += adf.ClusterCount()
		}
	}
	run.publishQuantiles()
	return run, nil
}

// simWorld bundles the simulation pieces both pipeline shapes share:
// the campus population, the gateway network, the broker pair, churn
// and the Run record with its pre-sized metric sinks.
type simWorld struct {
	nodes  []*node.Node
	net    *gateway.Network
	noLE   *broker.Broker
	withLE *broker.Broker
	churn  *engine.Churn
	churnK *engine.KeyedChurn
	run    *Run
	// idSpan is one past the highest node ID — the pre-sizing hint for
	// per-node state (broker windows, filter anchors).
	idSpan int
}

// buildRun wires one simulation: the filter under test, the campus
// population, gateways, brokers, metric sinks and the staged pipeline.
// Callers that need tick-level control (benchmarks, allocation tests)
// drive the returned pipeline directly; runFilter executes it to the
// horizon.
func (c Config) buildRun(mk filterFactory) (*engine.Pipeline, *Run, filter.Filter, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, nil, err
	}
	f, name, factor, err := mk()
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := c.buildWorld(name, factor)
	if err != nil {
		return nil, nil, nil, err
	}
	if pa, ok := f.(filter.Preallocator); ok {
		pa.Preallocate(w.idSpan)
	}
	pipeline := &engine.Pipeline{
		Nodes:           w.nodes,
		Net:             w.net,
		Filter:          f,
		NoLE:            w.noLE,
		WithLE:          w.withLE,
		Churn:           w.churn,
		ChurnK:          w.churnK,
		SamplePeriod:    c.SamplePeriod,
		MobilityWorkers: c.MobilityWorkers,
		Observers:       c.observers(w.run),
	}
	return pipeline, w.run, f, nil
}

// buildSharded wires one simulation behind the region-sharded pipeline.
// The factory is probed once for the run's name and factor, then every
// shard builds its own filter instance through NewFilter, so no filter
// state is shared across regions.
func (c Config) buildSharded(mk filterFactory) (*engine.Sharded, *Run, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	_, name, factor, err := mk()
	if err != nil {
		return nil, nil, err
	}
	w, err := c.buildWorld(name, factor)
	if err != nil {
		return nil, nil, err
	}
	p := &engine.Sharded{
		Nodes: w.nodes,
		Net:   w.net,
		NewFilter: func() (filter.Filter, error) {
			f, _, _, err := mk()
			if err != nil {
				return nil, err
			}
			if pa, ok := f.(filter.Preallocator); ok {
				pa.Preallocate(w.idSpan)
			}
			return f, nil
		},
		NoLE:         w.noLE,
		WithLE:       w.withLE,
		Churn:        w.churn,
		ChurnK:       w.churnK,
		SamplePeriod: c.SamplePeriod,
		Workers:      c.ShardWorkers,
		Observers:    c.observers(w.run),
	}
	return p, w.run, nil
}

// observers wires the three metric sinks every run records into.
func (c Config) observers(run *Run) engine.Observers {
	return engine.Observers{
		&trafficObserver{run: run},
		energyObserver{acc: run.Energy, period: c.SamplePeriod},
		newErrorObserver(run),
	}
}

// buildWorld constructs the pipeline-shape-independent simulation world
// for one run.
func (c Config) buildWorld(name string, factor float64) (*simWorld, error) {
	world := campus.New()
	perGroup := c.PerGroup
	if perGroup == 0 {
		perGroup = campus.PerGroup
	}
	specs := campus.PopulationN(world, perGroup)
	// The keyed mode swaps both stream classes: order-independent keyed
	// draws for gateway/outage/churn, and the 8-byte light source for
	// the per-entity sequential streams mobility keeps.
	var keyed *sim.Keyed
	streams := sim.NewStreams(c.Seed)
	if c.RNGMode == RNGKeyed {
		keyed = sim.NewKeyed(c.Seed)
		streams = sim.NewLightStreams(c.Seed)
	}
	nodes, err := node.Population(specs, world, streams)
	if err != nil {
		return nil, err
	}
	var net *gateway.Network
	switch {
	case c.Burst != nil && keyed != nil:
		net, err = gateway.NewBurstNetworkKeyed(world, *c.Burst, keyed)
	case c.Burst != nil:
		net, err = gateway.NewBurstNetwork(world, *c.Burst, streams)
	case keyed != nil:
		net, err = gateway.NewNetworkKeyed(world, c.DropProb, keyed)
	default:
		net, err = gateway.NewNetwork(world, c.DropProb, streams)
	}
	if err != nil {
		return nil, err
	}

	leFactory, err := c.estimatorFactory(c.Estimator)
	if err != nil {
		return nil, err
	}
	noLE := broker.New(nil)
	withLE := broker.New(leFactory)

	run := &Run{
		Name:             name,
		Factor:           factor,
		LUPerSecond:      &metrics.CountSeries{},
		OfferedPerSecond: &metrics.CountSeries{},
		SentByRegion:     metrics.NewGroupTally(),
		OfferedByRegion:  metrics.NewGroupTally(),
		RMSENoLE:         &metrics.RMSESeries{},
		RMSEWithLE:       &metrics.RMSESeries{},
		ErrNoLE:          &metrics.Summary{},
		ErrWithLE:        &metrics.Summary{},
		RMSENoLEByKind: map[string]*estimate.RMSEAccumulator{
			campus.Road.String():     {},
			campus.Building.String(): {},
		},
		RMSEWithLEByKind: map[string]*estimate.RMSEAccumulator{
			campus.Road.String():     {},
			campus.Building.String(): {},
		},
	}
	run.Energy, err = energy.NewAccountant(energy.DefaultModel())
	if err != nil {
		return nil, err
	}

	// The horizon and population are known up front: pre-size every series
	// and summary so the tick loop records without growth allocations.
	// Beyond the sample budget the quantile summaries switch to
	// systematic stride sampling — at a million nodes over 300 ticks an
	// exact error series would hold 300M float64s per summary.
	seconds := int(c.Duration) + 1
	ticks := int(c.Duration / c.SamplePeriod)
	run.LUPerSecond.Reserve(seconds)
	run.OfferedPerSecond.Reserve(seconds)
	run.RMSENoLE.Reserve(seconds)
	run.RMSEWithLE.Reserve(seconds)
	budget := ticks * len(nodes)
	if budget > maxSummarySamples {
		stride := (budget + maxSummarySamples - 1) / maxSummarySamples
		run.ErrNoLE.SetStride(stride)
		run.ErrWithLE.SetStride(stride)
		budget = budget/stride + 1
	}
	run.ErrNoLE.Reserve(budget)
	run.ErrWithLE.Reserve(budget)

	idSpan := 0
	for _, n := range nodes {
		if n.ID() >= idSpan {
			idSpan = n.ID() + 1
		}
	}
	noLE.Preallocate(idSpan)
	withLE.Preallocate(idSpan)

	var churn *engine.Churn
	var churnK *engine.KeyedChurn
	if c.Churn != nil {
		if keyed != nil {
			churnK = engine.NewKeyedChurn(c.Churn.LeaveProb, c.Churn.RejoinProb, keyed)
		} else {
			churn = engine.NewChurn(c.Churn.LeaveProb, c.Churn.RejoinProb, streams.Stream("churn"))
		}
	}
	return &simWorld{
		nodes:  nodes,
		net:    net,
		noLE:   noLE,
		withLE: withLE,
		churn:  churn,
		churnK: churnK,
		run:    run,
		idSpan: idSpan,
	}, nil
}

// maxSummarySamples caps each error summary's exact sample count; a
// larger budget records a systematic subsample instead (8.4M samples,
// at most 64 MiB per summary; exact zeros are counted, not stored).
const maxSummarySamples = 1 << 23

// Results bundles the paired runs every figure draws from: the ideal
// baseline plus one ADF run per DTH factor. Completed Results are shared
// through the campaign cache and must be treated as read-only — every
// figure derivation already is.
type Results struct {
	Config Config
	Ideal  *Run
	// ADF holds one run per Config.DTHFactors entry, in order.
	ADF []*Run
}
