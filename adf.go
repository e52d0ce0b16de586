// Package adf is the public API of the mobile-grid Adaptive Distance
// Filter library, a reproduction of "Adaptive Distance Filter-based
// Traffic Reduction for Mobile Grid" (Kim, Jang & Lee, ICDCS 2007
// workshops).
//
// The library has three user-facing layers:
//
//   - Filtering: an ADF instance consumes a stream of per-node location
//     updates (LUs) and decides which must be forwarded to the grid
//     broker. Baseline filters (ideal pass-through and the general
//     distance filter) share the same interface.
//   - Estimation: location estimators let a broker repair the error the
//     filtering introduces. The package provides the paper's Brown's
//     double-exponential-smoothing estimator and a gap-aware estimator
//     designed for distance-filtered streams.
//   - Brokerage: a Broker maintains the believed location of every node,
//     refreshed by received LUs or by its estimator when LUs are
//     filtered.
//
// The experiment harness reproducing every table and figure of the
// paper's evaluation is exposed through ExperimentConfig and
// RunExperiments in experiments.go.
package adf

import (
	"fmt"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/geo"
)

// Point is a 2-D position in metres.
type Point struct {
	X, Y float64
}

func (p Point) internal() geo.Point { return geo.Point{X: p.X, Y: p.Y} }

func fromInternal(p geo.Point) Point { return Point{X: p.X, Y: p.Y} }

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 { return p.internal().Dist(q.internal()) }

// LU is one node's sampled location at one instant of simulation or wall
// time (seconds).
type LU struct {
	Node int
	Time float64
	Pos  Point
}

// Decision is a filter's verdict on one LU.
type Decision struct {
	// Transmit reports whether the LU must be forwarded to the broker.
	Transmit bool
	// Distance is the moving distance the filter compared (metres).
	Distance float64
	// Threshold is the distance threshold (DTH) applied.
	Threshold float64
}

// Filter decides which location updates reach the grid broker. Offers
// for one node must carry non-decreasing timestamps. Implementations are
// not safe for concurrent use.
type Filter interface {
	// Name identifies the filter in reports.
	Name() string
	// Offer presents one LU and returns the filtering decision.
	Offer(lu LU) Decision
	// Forget drops all state for a node that left the grid.
	Forget(node int)
}

// filterAdapter lifts an internal filter to the public interface.
type filterAdapter struct {
	f filter.Filter
}

var _ Filter = (*filterAdapter)(nil)

func (a *filterAdapter) Name() string { return a.f.Name() }

func (a *filterAdapter) Offer(lu LU) Decision {
	d := a.f.Offer(filter.LU{Node: lu.Node, Time: lu.Time, Pos: lu.Pos.internal()})
	return Decision{Transmit: d.Transmit, Distance: d.Distance, Threshold: d.Threshold}
}

func (a *filterAdapter) Forget(node int) { a.f.Forget(node) }

// Semantics selects what "moving distance" a distance filter compares
// against its threshold.
type Semantics int

const (
	// PerStep compares the distance moved since the previous sample (the
	// paper's reading; the experiment default).
	PerStep Semantics = iota + 1
	// Anchored compares the displacement from the last transmitted
	// location, bounding the broker's error by the threshold.
	Anchored
)

func (s Semantics) internal() (filter.Semantics, error) {
	switch s {
	case PerStep:
		return filter.PerStep, nil
	case Anchored:
		return filter.Anchored, nil
	default:
		return 0, fmt.Errorf("adf: unknown semantics %d", int(s))
	}
}

// Options configures an Adaptive Distance Filter. The zero value is not
// valid; start from DefaultOptions.
type Options struct {
	// DTHFactor scales each cluster's mean speed into its distance
	// threshold (the paper evaluates 0.75, 1.0 and 1.25).
	DTHFactor float64
	// SamplePeriod is the LU sampling interval in seconds.
	SamplePeriod float64
	// MinDTH is the threshold floor in metres.
	MinDTH float64
	// ReclusterInterval is how often (seconds) the clustering is rebuilt.
	ReclusterInterval float64
	// Semantics selects the distance comparison (PerStep or Anchored).
	Semantics Semantics
	// ClusterAlpha is the sequential clustering similarity bound (m/s).
	ClusterAlpha float64
	// HeadingWeight converts heading difference into the clustering
	// metric's speed units.
	HeadingWeight float64
	// WalkSpeed is the classifier's maximum walking speed V_walk (m/s).
	WalkSpeed float64
	// WindowSize is the classifier's sliding sample window.
	WindowSize int
}

// DefaultOptions returns the configuration the paper's experiments use
// with DTH factor 1.0.
func DefaultOptions() Options {
	c := core.DefaultConfig()
	return Options{
		DTHFactor:         c.DTHFactor,
		SamplePeriod:      c.SamplePeriod,
		MinDTH:            c.MinDTH,
		ReclusterInterval: c.ReclusterInterval,
		Semantics:         PerStep,
		ClusterAlpha:      c.Cluster.Alpha,
		HeadingWeight:     c.Cluster.HeadingWeight,
		WalkSpeed:         c.Classifier.WalkSpeed,
		WindowSize:        c.Classifier.WindowSize,
	}
}

func (o Options) internal() (core.Config, error) {
	sem, err := o.Semantics.internal()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig()
	cfg.DTHFactor = o.DTHFactor
	cfg.SamplePeriod = o.SamplePeriod
	cfg.MinDTH = o.MinDTH
	cfg.ReclusterInterval = o.ReclusterInterval
	cfg.Semantics = sem
	cfg.Cluster.Alpha = o.ClusterAlpha
	cfg.Cluster.HeadingWeight = o.HeadingWeight
	cfg.Classifier.WalkSpeed = o.WalkSpeed
	cfg.Classifier.WindowSize = o.WindowSize
	return cfg, cfg.Validate()
}

// ADF is the Adaptive Distance Filter: it classifies each node's
// mobility pattern, clusters nodes of similar motion, and filters LUs
// with per-cluster distance thresholds.
type ADF struct {
	filterAdapter
	inner *core.ADF
}

// NewADF builds an Adaptive Distance Filter.
func NewADF(opts Options) (*ADF, error) {
	cfg, err := opts.internal()
	if err != nil {
		return nil, err
	}
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &ADF{filterAdapter: filterAdapter{f: inner}, inner: inner}, nil
}

// MobilityPattern is the classifier's three-way mobility classification.
type MobilityPattern string

// Mobility patterns as classified by the Figure-2 algorithm.
const (
	PatternUnknown MobilityPattern = "unknown"
	PatternStop    MobilityPattern = "SS"
	PatternRandom  MobilityPattern = "RMS"
	PatternLinear  MobilityPattern = "LMS"
)

// PatternOf returns the ADF's current classification of a node.
func (a *ADF) PatternOf(node int) MobilityPattern {
	return MobilityPattern(a.inner.PatternOf(node).String())
}

// ClusterCount returns the number of live motion clusters.
func (a *ADF) ClusterCount() int { return a.inner.ClusterCount() }

// ClusterInfo summarises one motion cluster.
type ClusterInfo struct {
	Size      int
	MeanSpeed float64
	DTH       float64
}

// Clusters returns the live clusters' statistics.
func (a *ADF) Clusters() []ClusterInfo {
	stats := a.inner.Clusters()
	out := make([]ClusterInfo, len(stats))
	for i, s := range stats {
		out[i] = ClusterInfo{Size: s.Size, MeanSpeed: s.MeanSpeed, DTH: s.DTH}
	}
	return out
}

// NewIdealLU returns the unfiltered pass-through baseline.
func NewIdealLU() Filter {
	return &filterAdapter{f: filter.NewIdealLU()}
}

// NewGeneralDF returns the paper's general distance filter: one global
// threshold (metres) for every node.
func NewGeneralDF(dth float64, semantics Semantics) (Filter, error) {
	sem, err := semantics.internal()
	if err != nil {
		return nil, err
	}
	f, err := filter.NewGeneralDFWithSemantics(dth, sem)
	if err != nil {
		return nil, err
	}
	return &filterAdapter{f: f}, nil
}

// Estimator forecasts a node's position between received LUs.
type Estimator interface {
	// Observe records a received location update.
	Observe(t float64, p Point)
	// Predict forecasts the position at time t (>= the last observation).
	Predict(t float64) Point
	// Ready reports whether enough updates arrived for a meaningful
	// forecast.
	Ready() bool
}

type estimatorAdapter struct {
	e estimate.PositionEstimator
}

var _ Estimator = (*estimatorAdapter)(nil)

func (a *estimatorAdapter) Observe(t float64, p Point) { a.e.Observe(t, p.internal()) }
func (a *estimatorAdapter) Predict(t float64) Point    { return fromInternal(a.e.Predict(t)) }
func (a *estimatorAdapter) Ready() bool                { return a.e.Ready() }

// NewBrownEstimator returns the paper's Location Estimator: Brown's
// double exponential smoothing of speed and direction with trigonometric
// projection, smoothing constant alpha in (0, 1).
func NewBrownEstimator(alpha float64) (Estimator, error) {
	e, err := estimate.NewBrownLE(alpha)
	if err != nil {
		return nil, err
	}
	return &estimatorAdapter{e: e}, nil
}

// NewGapAwareEstimator returns the estimator built for distance-filtered
// streams: it learns the silence-conditional drift from (gap, net
// displacement) pairs, which plain extrapolation systematically
// overestimates (see DESIGN.md).
func NewGapAwareEstimator() (Estimator, error) {
	e, err := estimate.NewGapAwareLE(estimate.DefaultGapAwareConfig())
	if err != nil {
		return nil, err
	}
	return &estimatorAdapter{e: e}, nil
}

// NewDeadReckoningEstimator returns the raw last-velocity extrapolator.
func NewDeadReckoningEstimator() Estimator {
	return &estimatorAdapter{e: estimate.NewDeadReckoning()}
}

// NewLastKnownEstimator returns the no-estimation baseline.
func NewLastKnownEstimator() Estimator {
	return &estimatorAdapter{e: estimate.NewLastKnown()}
}

// Broker is the grid broker's location database: one believed location
// per node, refreshed by received LUs or by the Location Estimator when
// an LU was filtered.
type Broker struct {
	b *broker.Broker
}

// BrokerEntry is one location-DB record.
type BrokerEntry struct {
	Node      int
	Pos       Point
	Time      float64
	Estimated bool
}

// NewBroker returns a broker. newEstimator builds one estimator per
// tracked node; nil disables estimation (the believed location is then
// always the last report).
func NewBroker(newEstimator func() Estimator) *Broker {
	var factory estimate.Factory
	if newEstimator != nil {
		factory = func() estimate.PositionEstimator {
			return &publicEstimator{e: newEstimator(), mk: newEstimator}
		}
	}
	return &Broker{b: broker.New(factory)}
}

// publicEstimator adapts a user-supplied Estimator back to the internal
// interface. An Estimator has no Reset, so Reset replaces it with a
// fresh one from the broker's factory mk.
type publicEstimator struct {
	e  Estimator
	mk func() Estimator
}

var _ estimate.PositionEstimator = (*publicEstimator)(nil)

func (p *publicEstimator) Observe(t float64, pt geo.Point) { p.e.Observe(t, fromInternal(pt)) }
func (p *publicEstimator) Predict(t float64) geo.Point     { return p.e.Predict(t).internal() }
func (p *publicEstimator) Ready() bool                     { return p.e.Ready() }
func (p *publicEstimator) Reset()                          { p.e = p.mk() }

// ReceiveLU stores a received location update.
func (b *Broker) ReceiveLU(node int, t float64, p Point) {
	b.b.ReceiveLU(node, t, p.internal())
}

// MissLU refreshes a node's believed location after a filtered LU and
// returns the refreshed entry.
func (b *Broker) MissLU(node int, t float64) (BrokerEntry, error) {
	e, err := b.b.MissLU(node, t)
	if err != nil {
		return BrokerEntry{}, err
	}
	return brokerEntry(e), nil
}

// Location returns the broker's current belief about a node.
func (b *Broker) Location(node int) (BrokerEntry, bool) {
	e, ok := b.b.Location(node)
	if !ok {
		return BrokerEntry{}, false
	}
	return brokerEntry(e), true
}

// Locations snapshots the whole location DB ordered by node ID.
func (b *Broker) Locations() []BrokerEntry {
	entries := b.b.Locations()
	out := make([]BrokerEntry, len(entries))
	for i, e := range entries {
		out[i] = brokerEntry(e)
	}
	return out
}

// Forget drops a node from the DB.
func (b *Broker) Forget(node int) { b.b.Forget(node) }

func brokerEntry(e broker.Entry) BrokerEntry {
	return BrokerEntry{Node: e.Node, Pos: fromInternal(e.Pos), Time: e.Time, Estimated: e.Estimated}
}

// QueryResult is one location-query hit.
type QueryResult struct {
	BrokerEntry
	// Dist is the distance from the query point, in metres.
	Dist float64
}

// Nearest returns the k nodes whose believed locations are closest to p,
// nearest first — the query the grid broker schedules location-aware
// work with.
func (b *Broker) Nearest(p Point, k int) ([]QueryResult, error) {
	cands, err := b.b.Nearest(p.internal(), k)
	if err != nil {
		return nil, err
	}
	return queryResults(cands), nil
}

// Within returns every node believed to be within radius metres of p,
// nearest first.
func (b *Broker) Within(p Point, radius float64) ([]QueryResult, error) {
	cands, err := b.b.Within(p.internal(), radius)
	if err != nil {
		return nil, err
	}
	return queryResults(cands), nil
}

func queryResults(cands []broker.Candidate) []QueryResult {
	out := make([]QueryResult, len(cands))
	for i, c := range cands {
		out[i] = QueryResult{BrokerEntry: brokerEntry(c.Entry), Dist: c.Dist}
	}
	return out
}
