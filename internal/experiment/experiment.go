// Package experiment reproduces the paper's evaluation: every table and
// figure of section 4 plus the ablations DESIGN.md calls out. One Run*
// function per experiment; each returns a typed result with a Table
// rendering that prints the same rows/series the paper reports.
//
// All experiments share one simulation core: the Table-1 population of 140
// mobile nodes moving on the synthetic campus for a configurable horizon
// (1800 s in the paper), sampled at 1 Hz through per-region wireless
// gateways, filtered by a pluggable location-update filter, and tracked by
// a grid broker with a Location Estimator, whose every record keeps both
// the estimated belief and the last report — the belief without an LE —
// so the "with LE" and "without LE" curves come from identical inputs.
//
// Runs that share a world — every Config field but the lane fields
// DTHFactors, Estimator, Smoothing, ADF and Workers — are simulated as
// lanes of one pass: the population moves and the gateways collect once
// per tick, and each run's filter, broker and sinks are its own. ADF
// runs that differ only in DTHFactor share one classification and
// clustering front. Every run's outputs are bit-identical to simulating
// it alone.
package experiment

import (
	"fmt"
	"math"
	"strings"

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
	// departure the filter and the broker forget the node entirely.
	Churn *ChurnConfig
	// DTHFactors are the threshold scalings to evaluate (0.75, 1.0, 1.25
	// in the paper).
	DTHFactors []float64
	// Smoothing is the Location Estimator's smoothing constant.
	Smoothing float64
	// Estimator selects the Location Estimator the lane's broker uses:
	// EstimatorGapAware (default), EstimatorBrown (the paper's plain
	// double-exponential smoothing), EstimatorSingle, EstimatorDead or
	// EstimatorAR1.
	Estimator string
	// ADF is the template configuration for the adaptive filter; its
	// DTHFactor and SamplePeriod are overridden per run.
	ADF core.Config
	// Workers bounds the campaign worker pool: 0 means one worker per
	// available CPU, 1 forces sequential execution. Runs that share a
	// world (everything but the lane fields DTHFactors, Estimator,
	// Smoothing, ADF and Workers) form one pass, which simulates the
	// world once and runs each of its filter configurations as a lane;
	// passes run concurrently on up to Workers workers. Above 1 (or with
	// ShardWorkers above 1) each lane's broker and sinks run on a
	// goroutine of their own, trailing the pass's world. It never
	// changes results — every lane computes exactly what a simulation of
	// its own would — only the execution schedule.
	Workers int
	// ShardWorkers selects the engine.Pipeline partition. 0 is the
	// campus partition: one filter instance sees every node, so the ADF
	// clusters campus-wide as in the paper. N > 0 is the region
	// partition on N workers: every stage past mobility advance runs
	// shard-locally per campus region, merged deterministically in
	// ascending region-ID order. Any N gives results bit-identical to
	// N = 1, the sequential reference. The ADF filter is instantiated
	// per region shard there, so its clustering is region-scoped
	// (DESIGN.md "Sharded pipeline").
	ShardWorkers int
	// RNGMode names the random stream class (DESIGN.md "Random
	// streams"). There is one: empty and RNGKeyed select it.
	RNGMode string
}

// RNGKeyed is the one random stream class: gateway, outage and churn
// draws come from the counter-based keyed PRF (sim.Keyed), mobility
// from per-node 8-byte splitmix64 streams.
const RNGKeyed = "keyed"

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
	// NaN fails every comparison below and ±Inf passes some, so the
	// float fields are checked for finiteness first.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Duration", c.Duration},
		{"SamplePeriod", c.SamplePeriod},
		{"DropProb", c.DropProb},
		{"Smoothing", c.Smoothing},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("experiment: %s must be finite, got %v", f.name, f.v)
		}
	}
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
		if !(f > 0) || f > core.MaxDTHFactor {
			return fmt.Errorf("experiment: DTHFactors entry %v outside (0, %v]", f, core.MaxDTHFactor)
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
	if c.ShardWorkers < 0 {
		return fmt.Errorf("experiment: negative ShardWorkers %d", c.ShardWorkers)
	}
	if c.RNGMode != "" && c.RNGMode != RNGKeyed {
		return fmt.Errorf("experiment: unknown RNGMode %q (want %q or empty)", c.RNGMode, RNGKeyed)
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
	// these, never the summaries, so a completed Run is read-only data.
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

// filterFactory describes one run's filter: its name and DTH factor,
// and mk, which builds a fresh instance. An ADF run also carries its
// configuration in adf, so a pass can serve ADF lanes whose
// configurations differ only in DTHFactor from one shared front per
// shard (core.ADF.At).
type filterFactory struct {
	name   string
	factor float64
	mk     func() (filter.Filter, error)
	adf    *core.Config
}

var idealFactory = filterFactory{name: "ideal", mk: func() (filter.Filter, error) {
	return filter.NewIdealLU(), nil
}}

func (c Config) adfFactory(factor float64) filterFactory {
	cfg := c.adfConfig(factor)
	return filterFactory{name: cfg.Name(), factor: factor, adf: &cfg, mk: func() (filter.Filter, error) {
		f, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return f, nil
	}}
}

// generalDFFactory sizes the global DTH the way the paper's general DF
// does: factor × mean speed of all MNs × sample period. The population
// mean speed is computed from the Table-1 velocity ranges.
func (c Config) generalDFFactory(factor float64, meanSpeed float64) filterFactory {
	name := fmt.Sprintf("general-df(%.2fav)", factor)
	return filterFactory{name: name, factor: factor, mk: func() (filter.Filter, error) {
		f, err := filter.NewGeneralDFWithSemantics(factor*meanSpeed*c.SamplePeriod, c.ADF.Semantics)
		if err != nil {
			return nil, err
		}
		return f, nil
	}}
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

// runFilter simulates the full campus once under the given filter and
// the paper's LE configuration: a one-lane pass.
func (c Config) runFilter(mk filterFactory) (*Run, error) {
	runs, err := runPass([]runTask{{cfg: c, mk: mk}})
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// runPass simulates one world under every task's filter: one pipeline
// (mobility advance → churn → gateway collect → filter → broker →
// error measurement) whose lanes are the tasks, in task order, each
// wired to its own Run's observer sinks. The tasks must share a world
// key. Every lane derives its node movement, gateway drops and
// estimator behaviour from Config.Seed through private streams, so it
// computes exactly what a pass of its own would. The filters are
// instantiated once per shard, so a run's ADF cluster summary is the sum
// over its lane's shard filters (one filter in the campus partition).
func runPass(tasks []runTask) ([]*Run, error) {
	p, runs, err := buildPass(tasks)
	if err != nil {
		return nil, err
	}
	if err := p.Run(tasks[0].cfg.Duration); err != nil {
		return nil, passError(tasks, err)
	}
	return runs, finishPass(p, runs, tasks[0].cfg.workers())
}

// finishPass completes the runs of a pass that has ticked to its
// horizon and been closed: each run's final cluster count, then its
// published quantiles, computed side by side on the pass's workers.
func finishPass(p *engine.Pipeline, runs []*Run, workers int) error {
	for _, filts := range p.ShardFilters() {
		for l, f := range filts {
			if adf, ok := f.(*core.ADF); ok {
				runs[l].FinalClusters += adf.ClusterCount()
			}
		}
	}
	// Each run's summaries are its own, so the quantile selections run
	// side by side.
	g := engine.NewGroup(workers)
	for _, run := range runs {
		g.Go(func() error {
			run.publishQuantiles()
			return nil
		})
	}
	return g.Wait()
}

// passError labels an error of a pass with its tasks' labels.
func passError(tasks []runTask, err error) error {
	var labels []string
	for _, t := range tasks {
		if t.label != "" {
			labels = append(labels, t.label)
		}
	}
	if len(labels) == 0 {
		return err
	}
	return fmt.Errorf("%s: %w", strings.Join(labels, ", "), err)
}

// publishQuantiles computes the run's published error quantiles. It is
// the last write to the run's summaries.
func (r *Run) publishQuantiles() {
	r.QuantNoLE = r.ErrNoLE.Quantiles()
	r.QuantWithLE = r.ErrWithLE.Quantiles()
}

// simWorld bundles the lane-independent simulation pieces a pass runs
// on: the campus population, the gateway network and churn.
type simWorld struct {
	nodes []*node.Node
	net   *gateway.Network
	churn *engine.KeyedChurn
	// idSpan is one past the highest node ID — the pre-sizing hint for
	// per-node state (broker windows, filter anchors).
	idSpan int
}

// buildPipeline wires a one-lane pass for tick-level control
// (benchmarks, allocation tests, digest comparisons): callers drive the
// returned pipeline directly; runFilter executes it to the horizon.
func (c Config) buildPipeline(mk filterFactory) (*engine.Pipeline, *Run, error) {
	p, runs, err := buildPass([]runTask{{cfg: c, mk: mk}})
	if err != nil {
		return nil, nil, err
	}
	return p, runs[0], nil
}

// buildPass wires one pass: the world of the first task's configuration
// and one lane per task — broker, Run record and metric sink — in the
// partition ShardWorkers selects. The pipeline builds every shard's
// filters through newFilters.
func buildPass(tasks []runTask) (*engine.Pipeline, []*Run, error) {
	for i, t := range tasks {
		if err := t.cfg.Validate(); err != nil {
			return nil, nil, passError(tasks[i:i+1], err)
		}
	}
	c := tasks[0].cfg
	w, err := c.buildWorld()
	if err != nil {
		return nil, nil, passError(tasks, err)
	}
	p := &engine.Pipeline{
		Nodes:        w.nodes,
		Net:          w.net,
		Churn:        w.churn,
		SamplePeriod: c.SamplePeriod,
		Workers:      c.ShardWorkers,
		Concurrent:   c.workers() > 1 || c.ShardWorkers > 1,
	}
	runs := make([]*Run, len(tasks))
	mks := make([]filterFactory, len(tasks))
	for i, t := range tasks {
		lane, run, err := t.cfg.buildLane(w, t.mk)
		if err != nil {
			return nil, nil, passError(tasks[i:i+1], err)
		}
		p.Lanes = append(p.Lanes, lane)
		runs[i], mks[i] = run, t.mk
	}
	p.NewFilters = newFilters(mks, w.idSpan)
	return p, runs, nil
}

// newFilters returns the pass's per-shard filter factory: one fresh
// filter per lane, except that an ADF lane whose configuration differs
// from an earlier ADF lane's only in DTHFactor gets a factor view of
// that lane's filter, so the classification and clustering run once per
// shard for both.
func newFilters(mks []filterFactory, idSpan int) func() ([]filter.Filter, error) {
	return func() ([]filter.Filter, error) {
		out := make([]filter.Filter, len(mks))
		for l, mk := range mks {
			if j := frontOf(mks[:l], mk); j >= 0 {
				out[l] = out[j].(*core.ADF).At(mk.adf.DTHFactor)
				continue
			}
			f, err := mk.mk()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mk.name, err)
			}
			if pa, ok := f.(filter.Preallocator); ok {
				pa.Preallocate(idSpan)
			}
			out[l] = f
		}
		return out, nil
	}
}

// frontOf returns the index of the first ADF lane in earlier whose
// configuration differs from mk's only in DTHFactor, or -1.
func frontOf(earlier []filterFactory, mk filterFactory) int {
	if mk.adf == nil {
		return -1
	}
	for j, e := range earlier {
		if e.adf == nil {
			continue
		}
		cfg := *e.adf
		cfg.DTHFactor = mk.adf.DTHFactor
		if cfg == *mk.adf {
			return j
		}
	}
	return -1
}

// buildWorld constructs the partition- and lane-independent simulation
// world: population, gateways and churn timeline.
func (c Config) buildWorld() (*simWorld, error) {
	world := campus.New()
	perGroup := c.PerGroup
	if perGroup == 0 {
		perGroup = campus.PerGroup
	}
	specs := campus.PopulationN(world, perGroup)
	keyed := sim.NewKeyed(c.Seed)
	nodes, err := node.Population(specs, world, sim.NewStreams(c.Seed))
	if err != nil {
		return nil, err
	}
	var net *gateway.Network
	if c.Burst != nil {
		net, err = gateway.NewBurstNetworkKeyed(world, *c.Burst, keyed)
	} else {
		net, err = gateway.NewNetworkKeyed(world, c.DropProb, keyed)
	}
	if err != nil {
		return nil, err
	}
	idSpan := 0
	for _, n := range nodes {
		if n.ID() >= idSpan {
			idSpan = n.ID() + 1
		}
	}
	var churn *engine.KeyedChurn
	if c.Churn != nil {
		churn = engine.NewKeyedChurn(c.Churn.LeaveProb, c.Churn.RejoinProb, keyed)
	}
	return &simWorld{nodes: nodes, net: net, churn: churn, idSpan: idSpan}, nil
}

// buildLane constructs one lane on world w: the broker under c's
// estimator and the Run record, named by mk, with its pre-sized metric
// sinks.
func (c Config) buildLane(w *simWorld, mk filterFactory) (engine.Lane, *Run, error) {
	leFactory, err := c.estimatorFactory(c.Estimator)
	if err != nil {
		return engine.Lane{}, nil, err
	}
	b := broker.New(leFactory)

	// The lane's four per-kind accumulators, written on every error
	// event, share one 64-byte allocation — one cache line — so lanes
	// recording on different CPUs never write to one line.
	kinds := new([4]estimate.RMSEAccumulator)
	run := &Run{
		Name:             mk.name,
		Factor:           mk.factor,
		LUPerSecond:      &metrics.CountSeries{},
		OfferedPerSecond: &metrics.CountSeries{},
		SentByRegion:     metrics.NewGroupTally(),
		OfferedByRegion:  metrics.NewGroupTally(),
		RMSENoLE:         &metrics.RMSESeries{},
		RMSEWithLE:       &metrics.RMSESeries{},
		ErrNoLE:          &metrics.Summary{},
		ErrWithLE:        &metrics.Summary{},
		RMSENoLEByKind: map[string]*estimate.RMSEAccumulator{
			campus.Road.String():     &kinds[0],
			campus.Building.String(): &kinds[1],
		},
		RMSEWithLEByKind: map[string]*estimate.RMSEAccumulator{
			campus.Road.String():     &kinds[2],
			campus.Building.String(): &kinds[3],
		},
	}
	run.Energy, err = energy.NewAccountant(energy.DefaultModel())
	if err != nil {
		return engine.Lane{}, nil, err
	}

	// The horizon and population are known up front: pre-size every series
	// and summary so the tick loop records without growth allocations.
	// Beyond the sample budget the quantile summaries switch to
	// systematic stride sampling — at a million nodes over 300 ticks an
	// exact error series would hold 300M float64s per summary.
	seconds := int(c.Duration) + 1
	ticks := engine.Ticks(c.SamplePeriod, c.Duration)
	run.LUPerSecond.Reserve(seconds)
	run.OfferedPerSecond.Reserve(seconds)
	run.RMSENoLE.Reserve(seconds)
	run.RMSEWithLE.Reserve(seconds)
	budget := ticks * len(w.nodes)
	if budget > maxSummarySamples {
		stride := (budget + maxSummarySamples - 1) / maxSummarySamples
		run.ErrNoLE.SetStride(stride)
		run.ErrWithLE.SetStride(stride)
		budget = budget/stride + 1
	}
	run.ErrNoLE.Reserve(budget)
	run.ErrWithLE.Reserve(budget)

	b.Preallocate(w.idSpan)
	lane := engine.Lane{Broker: b, Observer: newMetricSink(run, c.SamplePeriod)}
	return lane, run, nil
}

// maxSummarySamples caps each error summary's exact sample count; a
// larger budget records a systematic subsample instead (8.4M samples,
// at most 64 MiB per summary; exact zeros are counted, not stored).
const maxSummarySamples = 1 << 23

// Results bundles the paired runs every figure draws from: the ideal
// baseline plus one ADF run per DTH factor. Every figure derivation
// only reads them, so one Results serves all the figures.
type Results struct {
	Config Config
	Ideal  *Run
	// ADF holds one run per Config.DTHFactors entry, in order.
	ADF []*Run
}
